package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Framing constants. DESIGN.md ("Binary data plane") is the normative
// spec; the tests in this package assert these values against the field
// offsets it documents.
const (
	// Version is the protocol version carried at header offset 4. A
	// frame with any other version is rejected before its payload is
	// read.
	Version = 1
	// HeaderSize is the fixed frame-header length in bytes.
	HeaderSize = 20
	// MaxPayload bounds the payload length a decoder will accept
	// (64 MiB). A header announcing more is a protocol error, so a
	// corrupt or hostile length prefix cannot drive an allocation storm.
	MaxPayload = 1 << 26
	// MaxRows bounds a batch request's row count (65536). Row records
	// can be as small as one byte (a zero-feature dense row), so the
	// payload bound alone would let a 64 MiB frame announce tens of
	// millions of rows and drive output-side allocations (per-row slice
	// headers, rows×classes staging) far beyond the frame's own size.
	MaxRows = 1 << 16
)

// Header flag bits (offset 6, uint16 LE). Bits not listed here are
// reserved and must be zero; a frame carrying an unknown bit is
// rejected, so every future bit is a deliberate protocol revision.
const (
	// FlagTrace marks a frame whose payload ends with the 9-byte trace
	// trailer (u64 trace ID LE + u8 sampled). The trailer bytes are
	// included in the header's length field; decoders strip them before
	// interpreting the payload (SplitTraceTrailer). Frames without the
	// bit are byte-identical to pre-trace frames, so legacy peers
	// decode untraced traffic unchanged.
	FlagTrace uint16 = 1 << 0

	// FlagPriority marks a frame carrying the 1-byte priority trailer
	// (service class 0..2) immediately before the trace trailer (or at
	// the payload end when FlagTrace is unset). Decode order is fixed:
	// strip the trace trailer first, then the priority byte
	// (SplitPriorityTrailer). Frames without the bit default to the
	// interactive class and stay byte-identical to pre-priority frames.
	FlagPriority uint16 = 1 << 1

	// knownFlags is the mask of bits a version-1 decoder understands.
	knownFlags = FlagTrace | FlagPriority
)

// TraceTrailerSize is the byte length of the trace trailer a FlagTrace
// frame carries at the end of its payload.
const TraceTrailerSize = 9

// PriorityTrailerSize is the byte length of the priority trailer a
// FlagPriority frame carries before the trace trailer.
const PriorityTrailerSize = 1

// magic opens every frame: bytes 'N','A','W','P' at offsets 0..3.
var magic = [4]byte{'N', 'A', 'W', 'P'}

// Op is the frame opcode at header offset 5. Requests have the high bit
// clear; a response's opcode is its request's with RespBit set.
type Op uint8

// Request and response opcodes.
const (
	OpPredict Op = 0x01 // batch request → predicted classes
	OpProba   Op = 0x02 // batch request → class probabilities
	OpScores  Op = 0x03 // batch request → partial explicit-class logits
	OpMeta    Op = 0x04 // empty request → model snapshot metadata
	OpReload  Op = 0x05 // empty request → hot-swap the checkpoint

	// RespBit marks a frame as the response to the request opcode in
	// its low bits.
	RespBit Op = 0x80

	OpPredictResp Op = OpPredict | RespBit
	OpProbaResp   Op = OpProba | RespBit
	OpScoresResp  Op = OpScores | RespBit
	OpMetaResp    Op = OpMeta | RespBit
	OpReloadResp  Op = OpReload | RespBit

	// OpError is the error response to any request; its payload carries
	// an ErrCode plus a human-readable message.
	OpError Op = 0xFF

	// Peer opcodes: the training collectives' rank-to-rank frames
	// (internal/cluster). They have no responses. The correlation field
	// carries the sending rank: OpHello binds a connection to it, and
	// every later frame on that connection must repeat it.
	OpHello  Op = 0x10 // empty payload: bind this connection to rank Corr
	OpAbort  Op = 0x11 // empty payload: the sender's collective failed
	OpVector Op = 0x12 // raw float64 bits, payload length a multiple of 8
)

// ErrCode classifies an error frame by what the router may do about it:
// fail fast, fail over, or retry later. The status named beside each
// code is what the client edge answers when the error reaches it.
type ErrCode uint16

const (
	// CodeBadRequest is a deterministic request problem (bad shapes, bad
	// indices) — the 400 class. Retrying on another replica cannot help.
	CodeBadRequest ErrCode = 1
	// CodeQueueFull is admission-queue backpressure — the 429 class. A
	// router fails over without marking the replica down.
	CodeQueueFull ErrCode = 2
	// CodeNoModel means the replica holds no model snapshot — 503.
	CodeNoModel ErrCode = 3
	// CodeShapeChanged means a hot swap changed the model shape behind
	// the caller's back — 503, retry sees the settled shape.
	CodeShapeChanged ErrCode = 4
	// CodeClosed means the replica is shutting down — 503.
	CodeClosed ErrCode = 5
	// CodeNotImplemented means the operation is unsupported here (e.g.
	// reload without a configured reloader) — 501.
	CodeNotImplemented ErrCode = 6
	// CodeInternal is an unexpected server-side failure — 500.
	CodeInternal ErrCode = 7
)

// ErrDetail refines an error frame's code with the admission-control
// rejection reason, carried in the optional detail trailer of an
// OpError payload (Encoder.ErrorDetail). The values correspond to the
// machine-readable `reason` field of a client-edge 429.
type ErrDetail uint16

const (
	// DetailNone means the frame carried no detail trailer (or none
	// applies).
	DetailNone ErrDetail = 0
	// DetailQueueFull: the bounded admission queue was at capacity.
	DetailQueueFull ErrDetail = 1
	// DetailRateLimited: a token-bucket admission policy refused the
	// request.
	DetailRateLimited ErrDetail = 2
	// DetailCostRejected: a cost-aware admission policy refused the
	// request's rows x features price.
	DetailCostRejected ErrDetail = 3
)

// ErrBadFrame tags every framing-level decode failure (bad magic,
// version, flags, truncated or oversized payloads). It is a protocol
// error: the connection that produced it cannot be resynchronized and
// must be closed.
var ErrBadFrame = errors.New("wire: malformed frame")

// Header is the decoded fixed-size frame header:
//
//	offset 0  magic   "NAWP"
//	offset 4  version uint8  (= Version)
//	offset 5  opcode  uint8
//	offset 6  flags   uint16 LE (bit 0 = trace trailer present, bit 1 =
//	          priority trailer present; all other bits reserved, must
//	          be zero)
//	offset 8  corr    uint64 LE (correlation ID, echoed by responses)
//	offset 16 length  uint32 LE (payload bytes following the header)
type Header struct {
	Op    Op
	Flags uint16
	Corr  uint64
	Len   uint32
}

// PutHeader writes h into dst[:HeaderSize].
func PutHeader(dst []byte, h Header) {
	_ = dst[HeaderSize-1]
	copy(dst, magic[:])
	dst[4] = Version
	dst[5] = byte(h.Op)
	binary.LittleEndian.PutUint16(dst[6:8], h.Flags)
	binary.LittleEndian.PutUint64(dst[8:16], h.Corr)
	binary.LittleEndian.PutUint32(dst[16:20], h.Len)
}

// ParseHeader decodes and validates src[:HeaderSize]. Failures wrap
// ErrBadFrame: the stream is unrecoverable and must be closed.
func ParseHeader(src []byte) (Header, error) {
	if len(src) < HeaderSize {
		return Header{}, fmt.Errorf("%w: %d header bytes, need %d", ErrBadFrame, len(src), HeaderSize)
	}
	if src[0] != magic[0] || src[1] != magic[1] || src[2] != magic[2] || src[3] != magic[3] {
		return Header{}, fmt.Errorf("%w: bad magic %q", ErrBadFrame, src[0:4])
	}
	if src[4] != Version {
		return Header{}, fmt.Errorf("%w: protocol version %d, speak %d", ErrBadFrame, src[4], Version)
	}
	flags := binary.LittleEndian.Uint16(src[6:8])
	if flags&^knownFlags != 0 {
		return Header{}, fmt.Errorf("%w: unknown flags %#x", ErrBadFrame, flags&^knownFlags)
	}
	h := Header{
		Op:    Op(src[5]),
		Flags: flags,
		Corr:  binary.LittleEndian.Uint64(src[8:16]),
		Len:   binary.LittleEndian.Uint32(src[16:20]),
	}
	if h.Len > MaxPayload {
		return Header{}, fmt.Errorf("%w: payload length %d exceeds %d", ErrBadFrame, h.Len, MaxPayload)
	}
	return h, nil
}

// Reader reads frames off a byte stream. The payload buffer is
// grow-only and reused: the slice returned by Next is valid until the
// following Next call, so steady-state reads allocate nothing.
type Reader struct {
	r       io.Reader
	hdr     [HeaderSize]byte
	payload []byte
}

// NewReader wraps r (typically a bufio.Reader over a net.Conn).
func NewReader(r io.Reader) *Reader { return &Reader{r: r} }

// Next reads one frame and returns its header and payload view. A
// framing error (wrapped ErrBadFrame) or any I/O error means the stream
// is dead; the caller must close the connection.
func (fr *Reader) Next() (Header, []byte, error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return Header{}, nil, err
	}
	h, err := ParseHeader(fr.hdr[:])
	if err != nil {
		return Header{}, nil, err
	}
	if cap(fr.payload) < int(h.Len) {
		fr.payload = make([]byte, h.Len)
	}
	p := fr.payload[:h.Len:cap(fr.payload)]
	if _, err := io.ReadFull(fr.r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // header promised h.Len payload bytes
		}
		return Header{}, nil, fmt.Errorf("%w: truncated payload: %v", ErrBadFrame, err)
	}
	return h, p, nil
}
