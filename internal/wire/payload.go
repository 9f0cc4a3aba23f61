package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"
)

// Meta is the wire form of a replica's model snapshot metadata
// (MetaResp payload, 36 bytes of fixed fields plus a length-prefixed
// zone trailer — see DESIGN.md for the offsets). Shard fields are zero
// for a full replica.
type Meta struct {
	Version    int64
	Classes    int
	Features   int
	ShardIndex int
	ShardCount int
	ShardLow   int
	ShardHigh  int
	// TotalClasses is the full model's class count a shard belongs to.
	TotalClasses int
	// Zone is the replica's placement zone/rack label ("" when the
	// operator did not declare one); routers read it to validate the
	// zone-spread invariant of replicated shard groups.
	Zone string
}

// Row-record kind bytes inside a batch request payload.
const (
	kindDense  = 0
	kindSparse = 1
)

// Encoder builds one frame at a time in a grow-only buffer, so
// steady-state encodes allocate nothing. Usage: Begin, then exactly one
// payload-builder sequence, then Bytes (which patches the payload
// length into the header). An Encoder is not safe for concurrent use.
type Encoder struct {
	buf []byte
}

// Begin starts a frame with the given opcode and correlation ID.
func (e *Encoder) Begin(op Op, corr uint64) {
	if cap(e.buf) < HeaderSize {
		e.buf = make([]byte, HeaderSize, 1024)
	}
	e.buf = e.buf[:HeaderSize]
	PutHeader(e.buf, Header{Op: op, Corr: corr})
}

// Bytes patches the payload length into the header and returns the
// complete frame, valid until the next Begin.
func (e *Encoder) Bytes() []byte {
	binary.LittleEndian.PutUint32(e.buf[16:20], uint32(len(e.buf)-HeaderSize))
	return e.buf
}

func (e *Encoder) u8(v uint8) { e.buf = append(e.buf, v) }

func (e *Encoder) u32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
}

func (e *Encoder) u64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

func (e *Encoder) f64s(vs []float64) {
	n := len(e.buf)
	e.buf = slices.Grow(e.buf, 8*len(vs))[:n+8*len(vs)]
	for i, v := range vs {
		binary.LittleEndian.PutUint64(e.buf[n+8*i:], math.Float64bits(v))
	}
}

// Vector writes an OpVector payload: the values' raw IEEE-754 bits.
func (e *Encoder) Vector(vals []float64) { e.f64s(vals) }

// BatchHeader opens a batch request payload (OpPredict / OpProba /
// OpScores): row count, dense feature width, and — for OpScores — the
// shard width the caller planned (0 otherwise). Every dense row added
// afterwards must have exactly features values.
func (e *Encoder) BatchHeader(rows, features, cols int) {
	e.u32(uint32(rows))
	e.u32(uint32(features))
	e.u32(uint32(cols))
}

// DenseRow appends one dense row record: kind byte 0 followed by the
// row's raw IEEE-754 bits.
func (e *Encoder) DenseRow(row []float64) {
	e.u8(kindDense)
	e.f64s(row)
}

// SparseRow appends one sparse row record: kind byte 1, nonzero count,
// column indices, then values.
func (e *Encoder) SparseRow(idx []int, val []float64) {
	e.u8(kindSparse)
	e.u32(uint32(len(idx)))
	for _, j := range idx {
		e.u32(uint32(j))
	}
	e.f64s(val)
}

// Batch writes a whole batch request payload: BatchHeader with b's row
// count, then every row record in arrival order. features and cols are
// the caller's, not b's header fields, so concurrent legs can frame one
// batch with different planned widths.
func (e *Encoder) Batch(b *Batch, features, cols int) {
	e.BatchHeader(b.Rows(), features, cols)
	d, s := 0, 0
	for _, sparse := range b.Kind {
		if sparse {
			e.SparseRow(b.Idx[s], b.Val[s])
			s++
		} else {
			e.DenseRow(b.Dense[d])
			d++
		}
	}
}

// PredictResp writes an OpPredictResp payload: snapshot version, row
// count, and one int32 class per row.
func (e *Encoder) PredictResp(version int64, classes []int) {
	e.u64(uint64(version))
	e.u32(uint32(len(classes)))
	for _, c := range classes {
		e.u32(uint32(int32(c)))
	}
}

// FloatsResp writes an OpProbaResp or OpScoresResp payload: snapshot
// version, rows, cols, then the rows×cols row-major float64 tile as raw
// bits (probabilities with cols = Classes, partial scores with cols =
// the shard's explicit-class width).
func (e *Encoder) FloatsResp(version int64, rows, cols int, vals []float64) {
	e.u64(uint64(version))
	e.u32(uint32(rows))
	e.u32(uint32(cols))
	e.f64s(vals[:rows*cols])
}

// MetaResp writes an OpMetaResp payload: the 36 fixed bytes followed by
// the zone trailer (u16 length + bytes, truncated to 256).
func (e *Encoder) MetaResp(m Meta) {
	e.u64(uint64(m.Version))
	e.u32(uint32(m.Classes))
	e.u32(uint32(m.Features))
	e.u32(uint32(m.ShardIndex))
	e.u32(uint32(m.ShardCount))
	e.u32(uint32(m.ShardLow))
	e.u32(uint32(m.ShardHigh))
	e.u32(uint32(m.TotalClasses))
	zone := m.Zone
	if len(zone) > 256 {
		zone = zone[:256]
	}
	e.buf = binary.LittleEndian.AppendUint16(e.buf, uint16(len(zone)))
	e.buf = append(e.buf, zone...)
}

// ReloadResp writes an OpReloadResp payload: the deployed version.
func (e *Encoder) ReloadResp(version int64) { e.u64(uint64(version)) }

// Error writes an OpError payload: code, message length, message. The
// message is truncated to 512 bytes so an error path cannot balloon a
// frame.
func (e *Encoder) Error(code ErrCode, msg string) {
	if len(msg) > 512 {
		msg = msg[:512]
	}
	e.buf = binary.LittleEndian.AppendUint16(e.buf, uint16(code))
	e.buf = binary.LittleEndian.AppendUint16(e.buf, uint16(len(msg)))
	e.buf = append(e.buf, msg...)
}

// ErrorDetail writes an OpError payload with the optional detail
// trailer after the message: detail u16 (an ErrDetail rejection
// reason) plus retry-after u32 in milliseconds (0 = no hint). Decoders
// accept both layouts (DecodeErrorDetail); detail DetailNone emits the
// legacy payload.
func (e *Encoder) ErrorDetail(code ErrCode, msg string, detail ErrDetail, retryAfter time.Duration) {
	e.Error(code, msg)
	if detail == DetailNone {
		return
	}
	millis := retryAfter.Milliseconds()
	if retryAfter > 0 && millis == 0 {
		millis = 1 // a sub-millisecond hint still means "retry later"
	}
	if millis < 0 {
		millis = 0
	}
	if millis > math.MaxUint32 {
		millis = math.MaxUint32
	}
	e.buf = binary.LittleEndian.AppendUint16(e.buf, uint16(detail))
	e.u32(uint32(millis))
}

// reader walks a payload with bounds checking; every decode failure
// wraps ErrBadFrame.
type reader struct {
	p   []byte
	off int
}

func (r *reader) need(n int) error {
	if len(r.p)-r.off < n {
		return fmt.Errorf("%w: payload truncated at offset %d (need %d of %d bytes)", ErrBadFrame, r.off, n, len(r.p))
	}
	return nil
}

func (r *reader) u8() (uint8, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	v := r.p[r.off]
	r.off++
	return v, nil
}

func (r *reader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(r.p[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(r.p[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) f64s(dst []float64) error {
	if err := r.need(8 * len(dst)); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.p[r.off:]))
		r.off += 8
	}
	return nil
}

func (r *reader) done() error {
	if r.off != len(r.p) {
		return fmt.Errorf("%w: %d trailing payload bytes", ErrBadFrame, len(r.p)-r.off)
	}
	return nil
}

// Batch is the serving stack's one batch type: a request's rows, mixed
// dense and sparse, held in the per-kind form the scorers take (dense
// rows; index/value pairs) with the arrival order in Kind. The JSON
// scanner, the router and the frame decoder all build one, and
// serve.Batcher.ScoreBatch and serve.Predictor.ScoresBatch score one.
// Rows are views: AddDense/AddCSR store the caller's slices, Decode cuts
// them from grow-only buffers, so steady-state decodes allocate nothing.
type Batch struct {
	Features int    // Decode: dense feature width the request announced
	Cols     int    // Decode: OpScores shard width the client planned (0 otherwise)
	Kind     []bool // per arrival row: true = sparse
	Dense    [][]float64
	Idx      [][]int
	Val      [][]float64

	denseBuf []float64
	idxBuf   []int
	valBuf   []float64
}

// AddDense appends one dense row as a view; nothing is copied.
func (b *Batch) AddDense(row []float64) {
	b.Kind = append(b.Kind, false)
	b.Dense = append(b.Dense, row)
}

// AddCSR appends one sparse row (strictly increasing indices) as a
// view; nothing is copied.
func (b *Batch) AddCSR(idx []int, val []float64) {
	b.Kind = append(b.Kind, true)
	b.Idx = append(b.Idx, idx)
	b.Val = append(b.Val, val)
}

// Reset empties the batch, keeping every buffer's capacity.
func (b *Batch) Reset() {
	b.Features, b.Cols = 0, 0
	b.Kind = b.Kind[:0]
	b.Dense = b.Dense[:0]
	b.Idx = b.Idx[:0]
	b.Val = b.Val[:0]
}

// Decode parses a batch request payload (the bytes after the frame
// header of an OpPredict/OpProba/OpScores request), reusing the batch's
// backing buffers. A NaN or ±Inf feature value is an error naming its
// row. On error the batch contents are undefined.
func (b *Batch) Decode(p []byte) error {
	b.Reset()

	r := reader{p: p}
	rows, err := r.u32()
	if err != nil {
		return err
	}
	features, err := r.u32()
	if err != nil {
		return err
	}
	cols, err := r.u32()
	if err != nil {
		return err
	}
	// A row record is at least 1 byte, so rows > len(p) is provably
	// truncated; this caps the sizing pass before any buffer grows.
	if int(rows) > len(p) {
		return fmt.Errorf("%w: %d rows in a %d-byte payload", ErrBadFrame, rows, len(p))
	}
	// MaxRows bounds what the row count alone can make the *output*
	// side allocate (per-row headers here, rows×classes staging in the
	// server) — the payload bound does not, because records can be a
	// single byte.
	if rows > MaxRows {
		return fmt.Errorf("%w: %d rows exceeds %d", ErrBadFrame, rows, MaxRows)
	}
	if features > MaxPayload/8 {
		return fmt.Errorf("%w: feature width %d", ErrBadFrame, features)
	}
	b.Features, b.Cols = int(features), int(cols)

	// Sizing pass: walk the records once to bound the flat buffers, so
	// the fill pass never reallocates mid-way (row views must stay
	// valid) and a lying header cannot oversize an allocation.
	denseRows, nnzTotal := 0, 0
	rs := r
	for i := 0; i < int(rows); i++ {
		kind, err := rs.u8()
		if err != nil {
			return err
		}
		switch kind {
		case kindDense:
			denseRows++
			rs.off += 8 * int(features)
			if rs.off > len(p) {
				return fmt.Errorf("%w: dense row %d truncated", ErrBadFrame, i)
			}
		case kindSparse:
			nnz, err := rs.u32()
			if err != nil {
				return err
			}
			nnzTotal += int(nnz)
			rs.off += 12 * int(nnz)
			if rs.off > len(p) || int(nnz) > len(p) {
				return fmt.Errorf("%w: sparse row %d truncated", ErrBadFrame, i)
			}
		default:
			return fmt.Errorf("%w: row %d has unknown kind %d", ErrBadFrame, i, kind)
		}
	}
	if err := rs.done(); err != nil {
		return err
	}

	if need := denseRows * int(features); cap(b.denseBuf) < need {
		b.denseBuf = make([]float64, need)
	}
	if cap(b.idxBuf) < nnzTotal {
		b.idxBuf = make([]int, nnzTotal)
	}
	if cap(b.valBuf) < nnzTotal {
		b.valBuf = make([]float64, nnzTotal)
	}

	// Fill pass: decode rows into stable views of the flat buffers.
	dOff, sOff := 0, 0
	for i := 0; i < int(rows); i++ {
		kind, _ := r.u8()
		if kind == kindDense {
			row := b.denseBuf[dOff : dOff+int(features)]
			if err := r.f64s(row); err != nil {
				return err
			}
			if err := finiteRow(i, row); err != nil {
				return err
			}
			dOff += int(features)
			b.AddDense(row)
			continue
		}
		nnz32, _ := r.u32()
		nnz := int(nnz32)
		idx := b.idxBuf[sOff : sOff+nnz]
		for k := range idx {
			j, err := r.u32()
			if err != nil {
				return err
			}
			idx[k] = int(int32(j))
		}
		val := b.valBuf[sOff : sOff+nnz]
		if err := r.f64s(val); err != nil {
			return err
		}
		if err := finiteRow(i, val); err != nil {
			return err
		}
		sOff += nnz
		b.AddCSR(idx, val)
	}
	return nil
}

// finiteRow refuses a NaN or ±Inf feature value, as the JSON plane
// refuses an out-of-range number: a model scores one into garbage (NaN
// probabilities, an arbitrary class), never into an error.
func finiteRow(row int, vals []float64) error {
	for k, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%w: row %d holds non-finite value %v at position %d", ErrBadFrame, row, v, k)
		}
	}
	return nil
}

// Rows returns the batch's row count.
func (b *Batch) Rows() int { return len(b.Kind) }

// DecodePredictResp parses an OpPredictResp payload into out, returning
// the snapshot version and row count. out must hold every row.
func DecodePredictResp(p []byte, out []int) (version int64, rows int, err error) {
	r := reader{p: p}
	v, err := r.u64()
	if err != nil {
		return 0, 0, err
	}
	n, err := r.u32()
	if err != nil {
		return 0, 0, err
	}
	if int(n) > len(out) {
		return 0, 0, fmt.Errorf("wire: %d predictions for a %d-slot buffer", n, len(out))
	}
	if err := r.need(4 * int(n)); err != nil {
		return 0, 0, err
	}
	for i := 0; i < int(n); i++ {
		c, _ := r.u32()
		out[i] = int(int32(c))
	}
	if err := r.done(); err != nil {
		return 0, 0, err
	}
	return int64(v), int(n), nil
}

// DecodeFloatsResp parses an OpProbaResp/OpScoresResp payload into out,
// returning the snapshot version and tile shape. out must hold
// rows×cols values.
func DecodeFloatsResp(p []byte, out []float64) (version int64, rows, cols int, err error) {
	r := reader{p: p}
	v, err := r.u64()
	if err != nil {
		return 0, 0, 0, err
	}
	nr, err := r.u32()
	if err != nil {
		return 0, 0, 0, err
	}
	nc, err := r.u32()
	if err != nil {
		return 0, 0, 0, err
	}
	// Bound the factors before multiplying so a hostile header cannot
	// overflow the size arithmetic past the bounds check.
	if nr > MaxPayload/8 || nc > MaxPayload/8 {
		return 0, 0, 0, fmt.Errorf("%w: implausible tile %dx%d", ErrBadFrame, nr, nc)
	}
	if err := r.need(8 * int(nr) * int(nc)); err != nil {
		return 0, 0, 0, err
	}
	if n := int(nr) * int(nc); n > len(out) {
		return 0, 0, 0, fmt.Errorf("wire: %dx%d tile for a %d-slot buffer", nr, nc, len(out))
	}
	if err := r.f64s(out[:int(nr)*int(nc)]); err != nil {
		return 0, 0, 0, err
	}
	if err := r.done(); err != nil {
		return 0, 0, 0, err
	}
	return int64(v), int(nr), int(nc), nil
}

// DecodeMetaResp parses an OpMetaResp payload. The zone trailer is
// optional on the decode side: a 36-byte payload from a pre-zone
// encoder yields Zone "".
func DecodeMetaResp(p []byte) (Meta, error) {
	r := reader{p: p}
	v, err := r.u64()
	if err != nil {
		return Meta{}, err
	}
	var f [7]int
	for i := range f {
		u, err := r.u32()
		if err != nil {
			return Meta{}, err
		}
		f[i] = int(int32(u))
	}
	zone := ""
	if r.off < len(r.p) {
		if err := r.need(2); err != nil {
			return Meta{}, err
		}
		n := int(binary.LittleEndian.Uint16(r.p[r.off : r.off+2]))
		r.off += 2
		if n > 256 {
			return Meta{}, fmt.Errorf("%w: zone length %d exceeds 256", ErrBadFrame, n)
		}
		if err := r.need(n); err != nil {
			return Meta{}, err
		}
		zone = string(r.p[r.off : r.off+n])
		r.off += n
	}
	if err := r.done(); err != nil {
		return Meta{}, err
	}
	return Meta{
		Version: int64(v),
		Classes: f[0], Features: f[1],
		ShardIndex: f[2], ShardCount: f[3],
		ShardLow: f[4], ShardHigh: f[5], TotalClasses: f[6],
		Zone: zone,
	}, nil
}

// DecodeReloadResp parses an OpReloadResp payload.
func DecodeReloadResp(p []byte) (int64, error) {
	r := reader{p: p}
	v, err := r.u64()
	if err != nil {
		return 0, err
	}
	if err := r.done(); err != nil {
		return 0, err
	}
	return int64(v), nil
}

// DecodeVector parses an OpVector payload into a fresh slice, so the
// caller may keep it past the Reader's next frame.
func DecodeVector(p []byte) ([]float64, error) {
	if len(p)%8 != 0 {
		return nil, fmt.Errorf("%w: vector payload of %d bytes is not a multiple of 8", ErrBadFrame, len(p))
	}
	v := make([]float64, len(p)/8)
	r := reader{p: p}
	return v, r.f64s(v)
}

// DecodeError parses an OpError payload, ignoring the optional detail
// trailer. The message allocates — error frames are off the
// steady-state path by definition.
func DecodeError(p []byte) (ErrCode, string, error) {
	code, msg, _, _, err := DecodeErrorDetail(p)
	return code, msg, err
}

// DecodeErrorDetail parses an OpError payload including the optional
// detail trailer (detail u16 + retry-after-millis u32 after the
// message); a legacy payload that ends at the message yields
// DetailNone and zero retry-after.
func DecodeErrorDetail(p []byte) (ErrCode, string, ErrDetail, time.Duration, error) {
	r := reader{p: p}
	if err := r.need(4); err != nil {
		return 0, "", 0, 0, err
	}
	code := ErrCode(binary.LittleEndian.Uint16(p[0:2]))
	n := int(binary.LittleEndian.Uint16(p[2:4]))
	if n > 512 {
		// The spec bounds msgLen at 512 (Encoder.Error truncates to
		// match); enforce it on the read side too.
		return 0, "", 0, 0, fmt.Errorf("%w: error message length %d exceeds 512", ErrBadFrame, n)
	}
	r.off = 4
	if err := r.need(n); err != nil {
		return 0, "", 0, 0, err
	}
	msg := string(p[4 : 4+n])
	r.off += n
	detail := DetailNone
	var retryAfter time.Duration
	if r.off < len(r.p) {
		if err := r.need(6); err != nil {
			return 0, "", 0, 0, err
		}
		detail = ErrDetail(binary.LittleEndian.Uint16(r.p[r.off : r.off+2]))
		retryAfter = time.Duration(binary.LittleEndian.Uint32(r.p[r.off+2:r.off+6])) * time.Millisecond
		r.off += 6
	}
	if err := r.done(); err != nil {
		return 0, "", 0, 0, err
	}
	return code, msg, detail, retryAfter, nil
}
