package serve

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"newtonadmm/internal/control"
	"newtonadmm/internal/obs"
	"newtonadmm/internal/wire"
)

// FrameServer is the binary data plane's server side: a frame listener
// (DESIGN.md, "Binary data plane") serving the same Batcher and
// Registry as the HTTP Server, so a replica exposes both planes over
// one serving stack and hot swaps are visible on both at once.
//
// Each accepted connection is handled by one goroutine that reads
// frames in order and answers them in order — clients pipeline by
// writing ahead without waiting, and match answers by correlation ID.
// Request-shaped failures answer with an error frame and keep the
// connection; framing-level failures (bad magic, version, truncation)
// cannot be resynchronized and close it.
//
// Predict and proba requests score through the shared micro-batcher's
// Batcher.ScoreBatch (so frame-plane and HTTP-plane traffic coalesce
// into the same kernel launches); partial-score requests bypass it — the
// router already coalesced the client batch, so they score in at most
// two launches (one dense, one CSR) via Predictor.ScoresBatch.
type FrameServer struct {
	reg    *Registry
	bat    *Batcher
	reload func() (int64, error) // nil: reload unsupported on this plane

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// NewFrameServer wires the frame listener's handler state. reload may
// be nil, which makes OpReload answer CodeNotImplemented.
func NewFrameServer(reg *Registry, bat *Batcher, reload func() (int64, error)) *FrameServer {
	return &FrameServer{reg: reg, bat: bat, reload: reload, conns: make(map[net.Conn]struct{})}
}

// Serve accepts connections on ln until Close (or a listener error) and
// blocks meanwhile; run it in its own goroutine.
func (s *FrameServer) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			return err // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return ErrClosed
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(c)
	}
}

// Close stops the listener, closes every live connection, and waits for
// their handlers to return.
func (s *FrameServer) Close() {
	s.mu.Lock()
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

// connState is the per-connection reusable scratch: one of everything a
// handler needs, grown to high-water shapes so steady-state request
// handling performs no frame-layer allocations.
type connState struct {
	enc   wire.Encoder
	batch wire.Batch

	classes  []int     // predict output
	probaBuf []float64 // rows x classes staging
	scoreBuf []float64 // rows x cols partial tile, arrival order
}

func (s *FrameServer) handleConn(c net.Conn) {
	defer func() {
		c.Close()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		s.wg.Done()
	}()
	fr := wire.NewReader(bufio.NewReaderSize(c, 64<<10))
	var st connState
	for {
		h, payload, err := fr.Next()
		if err != nil {
			// Framing errors are unrecoverable mid-stream: answer with a
			// best-effort error frame (correlation 0 — the request's ID
			// never parsed) and drop the connection.
			if errors.Is(err, wire.ErrBadFrame) {
				st.enc.Begin(wire.OpError, 0)
				st.enc.Error(wire.CodeBadRequest, err.Error())
				c.Write(st.enc.Bytes())
			}
			return
		}
		s.handleFrame(h, payload, &st)
		if _, err := c.Write(st.enc.Bytes()); err != nil {
			return
		}
	}
}

// wireCodeFor maps serving errors to the spec's error codes with the
// same taxonomy statusFor maps them to HTTP statuses.
func wireCodeFor(err error) wire.ErrCode {
	switch {
	case errors.Is(err, ErrQueueFull):
		return wire.CodeQueueFull
	case errors.Is(err, ErrNoModel):
		return wire.CodeNoModel
	case errors.Is(err, ErrModelShapeChanged):
		return wire.CodeShapeChanged
	case errors.Is(err, ErrClosed):
		return wire.CodeClosed
	default:
		return wire.CodeBadRequest
	}
}

// wireDetailFor extracts the admission rejection detail carried by a
// serving error: the wire-level ErrDetail code plus the policy's
// retry-after hint. Non-rejection errors map to DetailNone, which
// ErrorDetail encodes as a legacy error payload.
func wireDetailFor(err error) (wire.ErrDetail, time.Duration) {
	reason, retryAfter, ok := RejectionOf(err)
	if !ok {
		return wire.DetailNone, 0
	}
	switch reason {
	case control.ReasonRateLimited:
		return wire.DetailRateLimited, retryAfter
	case control.ReasonCostRejected:
		return wire.DetailCostRejected, retryAfter
	default:
		return wire.DetailQueueFull, retryAfter
	}
}

// remoteTrace adopts a trace propagated over the wire: a nonzero
// sampled ID starts a span collection on this replica's recorder under
// the router's trace ID, so the fleet's traces stitch across processes.
func (s *FrameServer) remoteTrace(id uint64, sampled bool) *obs.Trace {
	if id == 0 || !sampled {
		return nil
	}
	return s.bat.Recorder().StartRemote(id, time.Now())
}

// handleFrame dispatches one request and leaves the response frame in
// st.enc.
func (s *FrameServer) handleFrame(h wire.Header, payload []byte, st *connState) {
	fail := func(code wire.ErrCode, format string, args ...any) {
		st.enc.Begin(wire.OpError, h.Corr)
		st.enc.Error(code, fmt.Sprintf(format, args...))
	}
	// The trailers ride at the payload's end on any flagged frame;
	// strip in reverse append order — trace first, then priority —
	// before opcode-specific decoding.
	payload, traceID, sampled, err := wire.SplitTraceTrailer(h, payload)
	if err != nil {
		fail(wire.CodeBadRequest, "%v", err)
		return
	}
	payload, priByte, err := wire.SplitPriorityTrailer(h, payload)
	if err != nil {
		fail(wire.CodeBadRequest, "%v", err)
		return
	}
	pri := control.Priority(priByte)
	switch h.Op {
	case wire.OpMeta:
		meta, ok := s.reg.Meta()
		if !ok {
			fail(wire.CodeNoModel, "no model loaded")
			return
		}
		st.enc.Begin(wire.OpMetaResp, h.Corr)
		st.enc.MetaResp(meta.Wire())
	case wire.OpReload:
		if s.reload == nil {
			fail(wire.CodeNotImplemented, "no reloader configured")
			return
		}
		v, err := s.reload()
		if err != nil {
			fail(wire.CodeInternal, "reload failed: %v", err)
			return
		}
		st.enc.Begin(wire.OpReloadResp, h.Corr)
		st.enc.ReloadResp(v)
	case wire.OpPredict, wire.OpProba:
		s.handleBatch(h, payload, st, h.Op == wire.OpProba, pri, s.remoteTrace(traceID, sampled))
	case wire.OpScores:
		s.handleScoresFrame(h, payload, st, s.remoteTrace(traceID, sampled))
	default:
		fail(wire.CodeBadRequest, "unknown opcode %#x", h.Op)
	}
}

// handleBatch is the full-model data plane: decode, score every row
// through the shared batcher, answer.
func (s *FrameServer) handleBatch(h wire.Header, payload []byte, st *connState, proba bool, pri control.Priority, tr *obs.Trace) {
	finishTrace := func() {
		if tr != nil {
			s.bat.Recorder().Finish(tr, time.Now())
			tr = nil
		}
	}
	fail := func(code wire.ErrCode, format string, args ...any) {
		st.enc.Begin(wire.OpError, h.Corr)
		st.enc.Error(code, fmt.Sprintf(format, args...))
		finishTrace()
	}
	if err := st.batch.Decode(payload); err != nil {
		fail(wire.CodeBadRequest, "%v", err)
		return
	}
	rows := st.batch.Rows()
	if rows == 0 {
		fail(wire.CodeBadRequest, "no instances")
		return
	}
	meta, ok := s.reg.Meta()
	if !ok {
		fail(wire.CodeNoModel, "no model loaded")
		return
	}
	classes := meta.Classes
	if cap(st.classes) < rows {
		st.classes = make([]int, rows)
	}
	st.classes = st.classes[:rows]
	var probaOut []float64
	if proba {
		if cap(st.probaBuf) < rows*classes {
			st.probaBuf = make([]float64, rows*classes)
		}
		st.probaBuf = st.probaBuf[:rows*classes]
		probaOut = st.probaBuf
	}
	if err := s.bat.ScoreBatch(&st.batch, pri, tr, st.classes, probaOut); err != nil {
		// The admission detail trailer rides along when the error is a
		// rejection, so a router (or client) can distinguish queue_full
		// from rate_limited and honor the retry-after hint.
		st.enc.Begin(wire.OpError, h.Corr)
		detail, retryAfter := wireDetailFor(err)
		st.enc.ErrorDetail(wireCodeFor(err), err.Error(), detail, retryAfter)
		finishTrace()
		return
	}
	encStart := time.Now()
	if proba {
		st.enc.Begin(wire.OpProbaResp, h.Corr)
		st.enc.FloatsResp(meta.Version, rows, classes, st.probaBuf)
	} else {
		st.enc.Begin(wire.OpPredictResp, h.Corr)
		st.enc.PredictResp(meta.Version, st.classes)
	}
	if tr != nil {
		tr.AddSpan(obs.StageEncode, -1, 0, encStart, time.Since(encStart))
	}
	finishTrace()
}

// handleScoresFrame is the class-shard data plane: score the request's
// rows against this replica's weight slice and answer the raw partial
// tile with the snapshot version it was computed against.
func (s *FrameServer) handleScoresFrame(h wire.Header, payload []byte, st *connState, tr *obs.Trace) {
	// Partial scoring bypasses the batcher, so the whole handler is the
	// execute stage; finish publishes the trace on every exit path.
	if tr != nil {
		execStart := time.Now()
		defer func() {
			tr.AddSpan(obs.StageExecute, -1, 0, execStart, time.Since(execStart))
			s.bat.Recorder().Finish(tr, time.Now())
		}()
	}
	fail := func(code wire.ErrCode, format string, args ...any) {
		st.enc.Begin(wire.OpError, h.Corr)
		st.enc.Error(code, fmt.Sprintf(format, args...))
	}
	if err := st.batch.Decode(payload); err != nil {
		fail(wire.CodeBadRequest, "%v", err)
		return
	}
	rows := st.batch.Rows()
	if rows == 0 {
		fail(wire.CodeBadRequest, "no instances")
		return
	}
	p, meta, release, err := s.reg.AcquireCurrent()
	if err != nil {
		fail(wireCodeFor(err), "%v", err)
		return
	}
	defer release()
	// Cols is the shard width the router planned against; ScoresBatch
	// refuses a mismatch (a shape-changing reload behind the router's
	// back) without writing a tile.
	m := p.Classes() - 1
	if cap(st.scoreBuf) < rows*m {
		st.scoreBuf = make([]float64, rows*m)
	}
	st.scoreBuf = st.scoreBuf[:rows*m]
	if err := p.ScoresBatch(&st.batch, st.batch.Cols, st.scoreBuf); err != nil {
		fail(wireCodeFor(err), "%v", err)
		return
	}
	st.enc.Begin(wire.OpScoresResp, h.Corr)
	st.enc.FloatsResp(meta.Version, rows, m, st.scoreBuf)
}
