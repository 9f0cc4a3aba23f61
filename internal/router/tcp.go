package router

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"newtonadmm/internal/control"
	"newtonadmm/internal/serve"
	"newtonadmm/internal/wire"
)

// TCPBackend drives a replica over the binary frame data plane
// (internal/wire; DESIGN.md "Binary data plane" is the spec): a small
// pool of persistent TCP connections to the replica's frame listener,
// each multiplexing pipelined requests matched to responses by
// correlation ID. Float64 payloads cross the wire as raw IEEE-754
// bits, so partial scores merged from remote shards remain bitwise
// identical to single-node scoring.
//
// Error semantics: backpressure surfaces as serve.ErrQueueFull
// (failover without eviction), shape changes as
// serve.ErrModelShapeChanged, missing models as serve.ErrNoModel, and
// every transport-level failure — dial, write, read, timeout, or a
// connection dying mid-stream — as ErrReplicaUnreachable, the only
// class that feeds the health signal. A dead connection fails its
// in-flight requests immediately and is replaced on the next call, so
// a replica crash never wedges the pool.
type TCPBackend struct {
	Addr string // frame listener address, e.g. "127.0.0.1:9081"
	// Conns is the persistent connection pool size; <= 0 selects 2.
	// Requests are striped round-robin and pipelined, so a small pool
	// sustains many concurrent scatters.
	Conns int
	// Timeout bounds each blocking step of a call separately — the
	// dial, the frame write (a write deadline on the socket, so a
	// stalled replica whose receive window fills cannot wedge the
	// connection), and the response wait — so a worst-case call takes
	// up to 3x Timeout. <= 0 selects 30s. On expiry the call fails
	// with ErrReplicaUnreachable; a response-wait expiry abandons only
	// the correlation ID (the connection stays pooled — the reader
	// drops the late response by its unknown ID), while a write expiry
	// retires the connection.
	Timeout time.Duration
	// RedialBase is the initial backoff after a failed dial: it doubles
	// per consecutive failure up to RedialMax, carries ±25% jitter so a
	// fleet of routers does not redial a recovering replica in lockstep,
	// and resets on the first successful dial. While the backoff window
	// is open, calls fail fast with ErrReplicaUnreachable instead of
	// dialing — a flapping replica must not be hammered with immediate
	// reconnect attempts from every pooled connection. <= 0 selects 50ms.
	RedialBase time.Duration
	// RedialMax caps the redial backoff; <= 0 selects 5s.
	RedialMax time.Duration

	mu        sync.Mutex
	pool      []*wireConn
	rr        int
	closed    bool
	dialFails int       // consecutive failed dials
	nextDial  time.Time // earliest next dial attempt

	corr atomic.Uint64

	encoders sync.Pool // *wire.Encoder
}

func (t *TCPBackend) timeout() time.Duration {
	if t.Timeout > 0 {
		return t.Timeout
	}
	return 30 * time.Second
}

func (t *TCPBackend) redialBase() time.Duration {
	if t.RedialBase > 0 {
		return t.RedialBase
	}
	return 50 * time.Millisecond
}

func (t *TCPBackend) redialMax() time.Duration {
	if t.RedialMax > 0 {
		return t.RedialMax
	}
	return 5 * time.Second
}

// noteDialFailed opens (or widens) the backoff window after a failed
// dial: exponential in the consecutive-failure count, capped at
// RedialMax, jittered ±25%. Caller must not hold t.mu.
func (t *TCPBackend) noteDialFailed() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dialFails++
	d := t.redialBase()
	for i := 1; i < t.dialFails && d < t.redialMax(); i++ {
		d *= 2
	}
	if d > t.redialMax() {
		d = t.redialMax()
	}
	d = d*3/4 + time.Duration(rand.Int63n(int64(d)/2+1)) // ±25% jitter
	t.nextDial = time.Now().Add(d)
}

// noteDialOK closes the backoff window. Caller must not hold t.mu.
func (t *TCPBackend) noteDialOK() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.dialFails = 0
	t.nextDial = time.Time{}
}

// wireConn is one pooled connection: a write-serialized socket plus a
// reader goroutine that demultiplexes response frames to the waiting
// calls by correlation ID.
type wireConn struct {
	owner *TCPBackend
	c     net.Conn

	wmu sync.Mutex // serializes frame writes

	pmu     sync.Mutex
	pending map[uint64]chan wireResp
	dead    bool
	deadErr error
}

// wireResp hands one response frame from the reader goroutine to its
// waiting call. The payload buffer is pooled; the call must release it.
type wireResp struct {
	op      wire.Op
	payload []byte
	err     error
}

var respBufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// get returns a live pooled connection, dialing replacements as
// needed. The dial happens outside t.mu: a blackholed replica must not
// let one caller's 30s connect stall every other request (and the
// health monitor's fast probes) behind the pool lock.
func (t *TCPBackend) get() (*wireConn, error) {
	n := t.Conns
	if n <= 0 {
		n = 2
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("%w %s: backend closed", ErrReplicaUnreachable, t.Addr)
	}
	if t.pool == nil {
		t.pool = make([]*wireConn, n)
	}
	// Round-robin over the slots; reuse the slot's connection when it is
	// still alive, otherwise dial a fresh one into the slot.
	slot := t.rr % n
	t.rr++
	wc := t.pool[slot]
	wait := time.Until(t.nextDial)
	t.mu.Unlock()
	if wc != nil && !wc.isDead() {
		return wc, nil
	}
	if wait > 0 {
		// Inside the redial backoff window: fail fast rather than hammer
		// a flapping replica with another connect attempt.
		return nil, fmt.Errorf("%w %s: redial backed off for another %v", ErrReplicaUnreachable, t.Addr, wait.Round(time.Millisecond))
	}
	c, err := net.DialTimeout("tcp", t.Addr, t.timeout())
	if err != nil {
		t.noteDialFailed()
		return nil, fmt.Errorf("%w %s: %v", ErrReplicaUnreachable, t.Addr, err)
	}
	t.noteDialOK()
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // frames are requests; don't batch them in the kernel
	}
	nc := &wireConn{owner: t, c: c, pending: make(map[uint64]chan wireResp)}
	t.mu.Lock()
	if t.closed {
		// Closed while we dialed.
		t.mu.Unlock()
		nc.fail(fmt.Errorf("%w %s: backend closed", ErrReplicaUnreachable, t.Addr))
		return nil, fmt.Errorf("%w %s: backend closed", ErrReplicaUnreachable, t.Addr)
	}
	if cur := t.pool[slot]; cur != nil && !cur.isDead() {
		// A concurrent caller repaired the slot first; use its
		// connection and drop the redundant dial.
		t.mu.Unlock()
		nc.fail(fmt.Errorf("%w %s: redundant dial", ErrReplicaUnreachable, t.Addr))
		return cur, nil
	}
	t.pool[slot] = nc
	t.mu.Unlock()
	go nc.readLoop()
	return nc, nil
}

func (w *wireConn) isDead() bool {
	w.pmu.Lock()
	defer w.pmu.Unlock()
	return w.dead
}

// fail marks the connection dead and fails every pending call; safe to
// call more than once.
func (w *wireConn) fail(err error) {
	w.pmu.Lock()
	if w.dead {
		w.pmu.Unlock()
		return
	}
	w.dead = true
	w.deadErr = err
	pending := w.pending
	w.pending = nil
	w.pmu.Unlock()
	w.c.Close()
	for _, ch := range pending {
		ch <- wireResp{err: err}
	}
}

// readLoop demultiplexes response frames to pending calls until the
// connection dies.
func (w *wireConn) readLoop() {
	fr := wire.NewReader(bufio.NewReaderSize(w.c, 64<<10))
	for {
		h, payload, err := fr.Next()
		if err != nil {
			w.fail(fmt.Errorf("%w %s: mid-stream: %v", ErrReplicaUnreachable, w.owner.Addr, err))
			return
		}
		w.pmu.Lock()
		ch, ok := w.pending[h.Corr]
		if ok {
			delete(w.pending, h.Corr)
		}
		w.pmu.Unlock()
		if !ok {
			continue // response to a timed-out call; drop it
		}
		bp := respBufPool.Get().(*[]byte)
		*bp = append((*bp)[:0], payload...)
		ch <- wireResp{op: h.Op, payload: *bp}
	}
}

// send registers the correlation ID and writes the frame.
func (w *wireConn) send(corr uint64, frame []byte, ch chan wireResp) error {
	w.pmu.Lock()
	if w.dead {
		err := w.deadErr
		w.pmu.Unlock()
		return err
	}
	w.pending[corr] = ch
	w.pmu.Unlock()

	w.wmu.Lock()
	// A stalled replica (open socket, full receive window) must not
	// wedge this connection — and with it every call striped here plus
	// the health probe — behind an unbounded Write.
	w.c.SetWriteDeadline(time.Now().Add(w.owner.timeout()))
	_, err := w.c.Write(frame)
	w.wmu.Unlock()
	if err != nil {
		w.fail(fmt.Errorf("%w %s: %v", ErrReplicaUnreachable, w.owner.Addr, err))
		// fail() answered ch if it was still pending; the caller reads
		// the error from there or from this return — either is the same
		// ErrReplicaUnreachable class.
		return fmt.Errorf("%w %s: %v", ErrReplicaUnreachable, w.owner.Addr, err)
	}
	return nil
}

// forget deregisters a timed-out call. Reports whether the response had
// already been delivered (in which case the caller must drain ch).
func (w *wireConn) forget(corr uint64) bool {
	w.pmu.Lock()
	defer w.pmu.Unlock()
	if w.pending == nil {
		return false // conn died; fail() already answered
	}
	_, pending := w.pending[corr]
	delete(w.pending, corr)
	return !pending
}

// roundTrip sends one request frame and waits for its response. The
// returned release must be called after the payload is decoded (it
// recycles the buffer); it is nil when err != nil.
func (t *TCPBackend) roundTrip(encode func(corr uint64, e *wire.Encoder)) (wire.Op, []byte, func(), error) {
	wc, err := t.get()
	if err != nil {
		return 0, nil, nil, err
	}
	corr := t.corr.Add(1)
	ep, _ := t.encoders.Get().(*wire.Encoder)
	if ep == nil {
		ep = new(wire.Encoder)
	}
	encode(corr, ep)
	ch := make(chan wireResp, 1)
	err = wc.send(corr, ep.Bytes(), ch)
	t.encoders.Put(ep)
	if err != nil {
		return 0, nil, nil, err
	}
	timer := time.NewTimer(t.timeout())
	defer timer.Stop()
	select {
	case resp := <-ch:
		if resp.err != nil {
			return 0, nil, nil, resp.err
		}
		release := func() {
			p := resp.payload[:0]
			respBufPool.Put(&p)
		}
		return resp.op, resp.payload, release, nil
	case <-timer.C:
		if delivered := wc.forget(corr); delivered {
			resp := <-ch // lost the race: response arrived while timing out
			if resp.err == nil {
				p := resp.payload[:0]
				respBufPool.Put(&p)
			}
		}
		// A response stream with an abandoned correlation ID is still
		// usable (the reader drops unknown IDs), but a replica that
		// blows the deadline is treated as unreachable for this call.
		return 0, nil, nil, fmt.Errorf("%w %s: round trip exceeded %v", ErrReplicaUnreachable, t.Addr, t.timeout())
	}
}

// errorForCode maps an error frame back to the router's taxonomy — the
// inverse of the frame server's wireCodeFor, so a remote replica's
// failure drives failover exactly as an in-process one's does. A
// queue-full frame carrying the admission detail trailer reconstructs
// the replica's typed rejection (reason + retry-after hint); without
// one it stays the plain sentinel, so legacy replicas fail over
// identically.
func (t *TCPBackend) errorForCode(code wire.ErrCode, msg string, detail wire.ErrDetail, retryAfter time.Duration) error {
	switch code {
	case wire.CodeQueueFull:
		switch detail {
		case wire.DetailRateLimited:
			return &serve.RejectionError{Reason: control.ReasonRateLimited, RetryAfter: retryAfter}
		case wire.DetailCostRejected:
			return &serve.RejectionError{Reason: control.ReasonCostRejected, RetryAfter: retryAfter}
		case wire.DetailQueueFull:
			return &serve.RejectionError{Reason: control.ReasonQueueFull, RetryAfter: retryAfter}
		}
		return serve.ErrQueueFull
	case wire.CodeNoModel:
		return fmt.Errorf("%w (replica: %s)", serve.ErrNoModel, msg)
	case wire.CodeShapeChanged:
		return fmt.Errorf("%w (replica: %s)", serve.ErrModelShapeChanged, msg)
	case wire.CodeClosed:
		return fmt.Errorf("%w (replica: %s)", serve.ErrClosed, msg)
	default:
		return fmt.Errorf("router: replica %s wire error %d: %s", t.Addr, code, msg)
	}
}

// expect accepts a response frame with the wanted opcode; any other
// frame is consumed and mapped to the error it carries.
func (t *TCPBackend) expect(op wire.Op, gotOp wire.Op, payload []byte, release func()) error {
	if gotOp == op {
		return nil
	}
	defer release()
	if gotOp == wire.OpError {
		code, msg, detail, retryAfter, err := wire.DecodeErrorDetail(payload)
		if err != nil {
			return fmt.Errorf("%w %s: undecodable error frame: %v", ErrReplicaUnreachable, t.Addr, err)
		}
		return t.errorForCode(code, msg, detail, retryAfter)
	}
	return fmt.Errorf("%w %s: response opcode %#x, want %#x", ErrReplicaUnreachable, t.Addr, gotOp, op)
}

// validateBatch rejects client-side what the wire cannot frame, as
// deterministic request-shaped (400-class) errors: mixed-width dense
// rows (the dense record length is derived from the header's feature
// count), batches over wire.MaxRows, and batches whose encoded payload
// would exceed wire.MaxPayload. The last two matter for failover: sent
// anyway, the replica would reject them as framing errors and close
// the connection, surfacing a deterministic client mistake as
// ErrReplicaUnreachable — which feeds the health signal and would mark
// healthy replicas down on retry.
func validateBatch(b *Batch) (features int, err error) {
	if b.Rows() > wire.MaxRows {
		return 0, fmt.Errorf("router: batch has %d rows, wire bound is %d", b.Rows(), wire.MaxRows)
	}
	if len(b.Dense) > 0 {
		features = len(b.Dense[0])
	}
	for i, row := range b.Dense {
		if len(row) != features {
			return 0, fmt.Errorf("router: dense row %d has %d features, row 0 has %d", i, len(row), features)
		}
	}
	payload := 12 + len(b.Dense)*(1+8*features)
	for _, idx := range b.Idx {
		payload += 1 + 4 + 12*len(idx)
	}
	if b.Priority != control.Interactive {
		payload += wire.PriorityTrailerSize
	}
	if b.Trace != nil {
		payload += wire.TraceTrailerSize
	}
	if payload > wire.MaxPayload {
		return 0, fmt.Errorf("router: batch encodes to %d payload bytes, wire bound is %d (split the request)", payload, wire.MaxPayload)
	}
	return features, nil
}

// encodeBatch writes a batch request frame. A non-interactive request
// carries its service class in the priority trailer (appended before
// the trace trailer, per the wire layout); an interactive one omits it,
// keeping the frame byte-identical to pre-priority traffic. A sampled
// request carries its trace ID in the frame's trace trailer (DESIGN.md
// "Observability"), so replica-side spans stitch to the router's trace.
func encodeBatch(e *wire.Encoder, op wire.Op, corr uint64, b *Batch, features, cols int) {
	e.Begin(op, corr)
	e.Batch(&b.Batch, features, cols)
	if b.Priority != control.Interactive {
		e.PriorityTrailer(uint8(b.Priority))
	}
	if b.Trace != nil {
		e.TraceTrailer(b.Trace.ID, true)
	}
}

// Meta probes the replica over the wire; it doubles as the health
// check.
func (t *TCPBackend) Meta() (serve.ModelMeta, error) {
	op, payload, release, err := t.roundTrip(func(corr uint64, e *wire.Encoder) {
		e.Begin(wire.OpMeta, corr)
	})
	if err != nil {
		return serve.ModelMeta{}, err
	}
	if err := t.expect(wire.OpMetaResp, op, payload, release); err != nil {
		return serve.ModelMeta{}, err
	}
	defer release()
	wm, err := wire.DecodeMetaResp(payload)
	if err != nil {
		return serve.ModelMeta{}, fmt.Errorf("%w %s: %v", ErrReplicaUnreachable, t.Addr, err)
	}
	if wm.Classes < 2 || wm.Features <= 0 {
		return serve.ModelMeta{}, fmt.Errorf("router: replica %s reported no model", t.Addr)
	}
	return serve.MetaFromWire(wm), nil
}

// Score scores the batch over the wire (replica-balanced data plane):
// an OpProba round trip when proba is non-nil (proba is rows x classes),
// else an OpPredict one into preds.
func (t *TCPBackend) Score(b *Batch, preds []int, proba []float64) error {
	op, want := wire.OpPredict, wire.OpPredictResp
	if proba != nil {
		op, want = wire.OpProba, wire.OpProbaResp
	}
	got, payload, release, err := t.batchTrip(op, b, 0)
	if err != nil {
		return err
	}
	if err := t.expect(want, got, payload, release); err != nil {
		return err
	}
	defer release()
	rows := b.Rows()
	if proba == nil {
		_, n, err := wire.DecodePredictResp(payload, preds)
		if err != nil {
			return fmt.Errorf("%w %s: %v", ErrReplicaUnreachable, t.Addr, err)
		}
		if n != rows {
			return fmt.Errorf("router: replica returned %d predictions for %d instances", n, rows)
		}
		return nil
	}
	if rows == 0 {
		return nil
	}
	classes := len(proba) / rows
	_, nr, nc, err := wire.DecodeFloatsResp(payload, proba)
	if err != nil {
		return fmt.Errorf("%w %s: %v", ErrReplicaUnreachable, t.Addr, err)
	}
	if nr != rows || nc != classes {
		return fmt.Errorf("router: replica returned a %dx%d probability tile, want %dx%d", nr, nc, rows, classes)
	}
	return nil
}

// PartialScores fetches the raw partial-logit tile (class-sharded data
// plane). The request carries the planned width, so a replica whose
// shape changed answers CodeShapeChanged without writing a tile.
func (t *TCPBackend) PartialScores(b *Batch, cols int, out []float64) (int64, error) {
	op, payload, release, err := t.batchTrip(wire.OpScores, b, cols)
	if err != nil {
		return 0, err
	}
	if err := t.expect(wire.OpScoresResp, op, payload, release); err != nil {
		return 0, err
	}
	defer release()
	version, nr, nc, err := wire.DecodeFloatsResp(payload, out)
	if err != nil {
		return 0, fmt.Errorf("%w %s: %v", ErrReplicaUnreachable, t.Addr, err)
	}
	if nc != cols {
		return 0, fmt.Errorf("%w (shard now %d explicit classes, router planned %d)", serve.ErrModelShapeChanged, nc, cols)
	}
	if nr != b.Rows() {
		return 0, fmt.Errorf("router: replica returned %d score rows for %d instances", nr, b.Rows())
	}
	return version, nil
}

// batchTrip validates, encodes, and round-trips one batch request.
func (t *TCPBackend) batchTrip(op wire.Op, b *Batch, cols int) (wire.Op, []byte, func(), error) {
	features, err := validateBatch(b)
	if err != nil {
		return 0, nil, nil, err
	}
	return t.roundTrip(func(corr uint64, e *wire.Encoder) {
		encodeBatch(e, op, corr, b, features, cols)
	})
}

// Reload asks the replica to hot-swap its checkpoint.
func (t *TCPBackend) Reload() (int64, error) {
	op, payload, release, err := t.roundTrip(func(corr uint64, e *wire.Encoder) {
		e.Begin(wire.OpReload, corr)
	})
	if err != nil {
		return 0, err
	}
	if err := t.expect(wire.OpReloadResp, op, payload, release); err != nil {
		return 0, err
	}
	defer release()
	v, err := wire.DecodeReloadResp(payload)
	if err != nil {
		return 0, fmt.Errorf("%w %s: %v", ErrReplicaUnreachable, t.Addr, err)
	}
	return v, nil
}

// Close tears down the connection pool; the backend must not be used
// afterwards (late calls fail with ErrReplicaUnreachable rather than
// resurrecting the pool).
func (t *TCPBackend) Close() {
	t.mu.Lock()
	t.closed = true
	pool := t.pool
	t.pool = nil
	t.mu.Unlock()
	for _, wc := range pool {
		if wc != nil {
			wc.fail(fmt.Errorf("%w %s: backend closed", ErrReplicaUnreachable, t.Addr))
		}
	}
}

// ErrHTTPJoin rejects an http(s):// join address: replicas are reached
// over the binary frame plane only, JSON stops at the client edge.
var ErrHTTPJoin = errors.New("router: replicas are joined over the binary frame plane, not HTTP")

// BackendForURL builds the backend for one -join address:
// "tcp://host:port" or a bare "host:port" is the replica's frame
// listener (its -wire-addr).
func BackendForURL(base string) (Backend, error) {
	addr, isTCP := strings.CutPrefix(base, "tcp://")
	switch {
	case isTCP || !strings.Contains(base, "://"):
		return &TCPBackend{Addr: addr}, nil
	case strings.HasPrefix(base, "http://"), strings.HasPrefix(base, "https://"):
		return nil, fmt.Errorf("%w: start the replica behind %q with -wire-addr and join tcp://host:port of that listener", ErrHTTPJoin, base)
	default:
		return nil, fmt.Errorf("router: unknown join scheme in %q (want tcp://host:port)", base)
	}
}
