package serve

import (
	"bufio"
	"errors"
	"math"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"newtonadmm/internal/wire"
)

// frameTestStack builds a registry+batcher+frame listener over a random
// model and returns the dial address plus the weights for reference
// scoring.
func frameTestStack(t *testing.T, classes, features int) (addr string, w []float64, reg *Registry, shutdown func()) {
	t.Helper()
	rng := rand.New(rand.NewSource(61))
	w = make([]float64, (classes-1)*features)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	p, err := NewPredictor(w, classes, features, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg = NewRegistry()
	reg.Swap(p, ModelMeta{})
	bat := NewBatcher(reg, BatcherConfig{MaxBatch: 8, MaxLinger: 50 * time.Microsecond, QueueDepth: 64})
	fs := NewFrameServer(reg, bat, func() (int64, error) { return reg.Swap(mustPredictor(t, w, classes, features), ModelMeta{}), nil })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go fs.Serve(ln)
	return ln.Addr().String(), w, reg, func() {
		fs.Close()
		bat.Close()
		reg.Close()
	}
}

func mustPredictor(t *testing.T, w []float64, classes, features int) *Predictor {
	t.Helper()
	p, err := NewPredictor(w, classes, features, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// frameClient is a minimal single-connection client for these tests.
type frameClient struct {
	c   net.Conn
	r   *wire.Reader
	enc wire.Encoder
}

func dialFrames(t *testing.T, addr string) *frameClient {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	return &frameClient{c: c, r: wire.NewReader(bufio.NewReader(c))}
}

func (fc *frameClient) roundTrip(t *testing.T) (wire.Header, []byte) {
	t.Helper()
	if _, err := fc.c.Write(fc.enc.Bytes()); err != nil {
		t.Fatal(err)
	}
	h, p, err := fc.r.Next()
	if err != nil {
		t.Fatal(err)
	}
	return h, p
}

// TestFrameServerPredictProbaScores drives all three batch opcodes over
// a live socket and checks the answers match direct predictor calls
// bitwise, with correlation IDs echoed.
func TestFrameServerPredictProbaScores(t *testing.T) {
	const classes, features, rows = 5, 7, 6
	addr, w, _, shutdown := frameTestStack(t, classes, features)
	defer shutdown()

	rng := rand.New(rand.NewSource(62))
	dense := make([][]float64, rows)
	for i := range dense {
		dense[i] = make([]float64, features)
		for j := range dense[i] {
			dense[i][j] = rng.NormFloat64()
		}
	}
	ref := mustPredictor(t, w, classes, features)
	defer ref.Close()
	wantPred := make([]int, rows)
	if err := ref.PredictDense(dense, wantPred); err != nil {
		t.Fatal(err)
	}
	wantProba := make([]float64, rows*classes)
	if err := ref.ProbaDense(dense, wantProba); err != nil {
		t.Fatal(err)
	}
	wantScores := make([]float64, rows*(classes-1))
	var denseBatch wire.Batch
	for _, row := range dense {
		denseBatch.AddDense(row)
	}
	if err := ref.ScoresBatch(&denseBatch, classes-1, wantScores); err != nil {
		t.Fatal(err)
	}

	fc := dialFrames(t, addr)
	defer fc.c.Close()

	// Mixed batch: odd rows as sparse records carrying the same values.
	encodeBatch := func(op wire.Op, corr uint64, cols int) {
		fc.enc.Begin(op, corr)
		fc.enc.BatchHeader(rows, features, cols)
		for i, row := range dense {
			if i%2 == 1 {
				var idx []int
				var val []float64
				for j, v := range row {
					if v != 0 {
						idx = append(idx, j)
						val = append(val, v)
					}
				}
				fc.enc.SparseRow(idx, val)
			} else {
				fc.enc.DenseRow(row)
			}
		}
	}

	encodeBatch(wire.OpPredict, 100, 0)
	h, p := fc.roundTrip(t)
	if h.Op != wire.OpPredictResp || h.Corr != 100 {
		t.Fatalf("predict response header %+v", h)
	}
	got := make([]int, rows)
	if _, n, err := wire.DecodePredictResp(p, got); err != nil || n != rows {
		t.Fatalf("predict decode: n=%d err=%v", n, err)
	}
	for i := range wantPred {
		if got[i] != wantPred[i] {
			t.Fatalf("row %d: frame plane %d, direct %d", i, got[i], wantPred[i])
		}
	}

	encodeBatch(wire.OpProba, 101, 0)
	h, p = fc.roundTrip(t)
	if h.Op != wire.OpProbaResp || h.Corr != 101 {
		t.Fatalf("proba response header %+v", h)
	}
	gotProba := make([]float64, rows*classes)
	if _, nr, nc, err := wire.DecodeFloatsResp(p, gotProba); err != nil || nr != rows || nc != classes {
		t.Fatalf("proba decode: %dx%d err=%v", nr, nc, err)
	}
	for i := range wantProba {
		if gotProba[i] != wantProba[i] { // bitwise
			t.Fatalf("proba[%d]: frame plane %v, direct %v", i, gotProba[i], wantProba[i])
		}
	}

	encodeBatch(wire.OpScores, 102, classes-1)
	h, p = fc.roundTrip(t)
	if h.Op != wire.OpScoresResp || h.Corr != 102 {
		t.Fatalf("scores response header %+v", h)
	}
	gotScores := make([]float64, rows*(classes-1))
	if _, nr, nc, err := wire.DecodeFloatsResp(p, gotScores); err != nil || nr != rows || nc != classes-1 {
		t.Fatalf("scores decode: %dx%d err=%v", nr, nc, err)
	}
	for i := range wantScores {
		if gotScores[i] != wantScores[i] { // bitwise
			t.Fatalf("scores[%d]: frame plane %v, direct %v", i, gotScores[i], wantScores[i])
		}
	}

	// Planned-width mismatch answers CodeShapeChanged without a tile.
	encodeBatch(wire.OpScores, 103, classes+3)
	h, p = fc.roundTrip(t)
	if h.Op != wire.OpError {
		t.Fatalf("mismatched cols answered %#x, want error frame", h.Op)
	}
	if code, _, err := wire.DecodeError(p); err != nil || code != wire.CodeShapeChanged {
		t.Fatalf("mismatched cols code %d err=%v, want CodeShapeChanged", code, err)
	}
}

// TestFrameServerMetaReload covers the control opcodes.
func TestFrameServerMetaReload(t *testing.T) {
	const classes, features = 4, 6
	addr, _, _, shutdown := frameTestStack(t, classes, features)
	defer shutdown()
	fc := dialFrames(t, addr)
	defer fc.c.Close()

	fc.enc.Begin(wire.OpMeta, 7)
	h, p := fc.roundTrip(t)
	if h.Op != wire.OpMetaResp || h.Corr != 7 {
		t.Fatalf("meta header %+v", h)
	}
	m, err := wire.DecodeMetaResp(p)
	if err != nil || m.Classes != classes || m.Features != features || m.Version != 1 {
		t.Fatalf("meta %+v err=%v", m, err)
	}

	fc.enc.Begin(wire.OpReload, 8)
	h, p = fc.roundTrip(t)
	if h.Op != wire.OpReloadResp {
		t.Fatalf("reload header %+v", h)
	}
	if v, err := wire.DecodeReloadResp(p); err != nil || v != 2 {
		t.Fatalf("reload v=%d err=%v, want 2", v, err)
	}
	fc.enc.Begin(wire.OpMeta, 9)
	_, p = fc.roundTrip(t)
	if m, _ := wire.DecodeMetaResp(p); m.Version != 2 {
		t.Fatalf("meta after reload reports v%d, want 2", m.Version)
	}
}

// TestFrameServerRefusesPeerOpcodes: the training collectives' opcodes
// are not requests; the frame server answers each with its
// unknown-opcode error and keeps the connection.
func TestFrameServerRefusesPeerOpcodes(t *testing.T) {
	addr, _, _, shutdown := frameTestStack(t, 3, 4)
	defer shutdown()
	fc := dialFrames(t, addr)
	defer fc.c.Close()
	for _, op := range []wire.Op{wire.OpHello, wire.OpAbort, wire.OpVector} {
		fc.enc.Begin(op, 1)
		fc.enc.Vector([]float64{13})
		h, p := fc.roundTrip(t)
		if h.Op != wire.OpError || h.Corr != 1 {
			t.Fatalf("opcode %#x answered %+v, want an error frame", op, h)
		}
		if code, msg, err := wire.DecodeError(p); err != nil || code != wire.CodeBadRequest || !strings.Contains(msg, "unknown opcode") {
			t.Fatalf("opcode %#x: code %d msg %q err=%v, want the unknown-opcode error", op, code, msg, err)
		}
	}
	fc.enc.Begin(wire.OpMeta, 2)
	if h, _ := fc.roundTrip(t); h.Op != wire.OpMetaResp {
		t.Fatalf("connection unusable after refused peer frames: %+v", h)
	}
}

// TestFrameServerRefusesNonFiniteFeatures: a NaN or ±Inf feature, in a
// dense or a sparse record, is a request-shaped bad request naming the
// row (as the JSON plane's out-of-range 400), never a scored answer, and
// the connection still serves the next good frame.
func TestFrameServerRefusesNonFiniteFeatures(t *testing.T) {
	const classes, features = 5, 3
	addr, _, _, shutdown := frameTestStack(t, classes, features)
	defer shutdown()
	fc := dialFrames(t, addr)
	defer fc.c.Close()

	good := []float64{0.5, -1, 2}
	corr := uint64(0)
	for _, op := range []wire.Op{wire.OpPredict, wire.OpProba} {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, sparse := range []bool{false, true} {
				corr++
				fc.enc.Begin(op, corr)
				fc.enc.BatchHeader(2, features, 0)
				fc.enc.DenseRow(good)
				if sparse {
					fc.enc.SparseRow([]int{0, 2}, []float64{1, bad})
				} else {
					fc.enc.DenseRow([]float64{1, bad, 0})
				}
				h, p := fc.roundTrip(t)
				if h.Op != wire.OpError || h.Corr != corr {
					t.Fatalf("op %#x value %v sparse=%v answered %+v, want an error frame", op, bad, sparse, h)
				}
				if code, msg, err := wire.DecodeError(p); err != nil || code != wire.CodeBadRequest || !strings.Contains(msg, "row 1") {
					t.Fatalf("op %#x value %v sparse=%v: code %d msg %q err=%v, want a bad request naming row 1", op, bad, sparse, code, msg, err)
				}

				corr++
				fc.enc.Begin(op, corr)
				fc.enc.BatchHeader(1, features, 0)
				fc.enc.DenseRow(good)
				if h, _ := fc.roundTrip(t); h.Corr != corr || h.Op == wire.OpError {
					t.Fatalf("good frame after a refused one answered %+v", h)
				}
			}
		}
	}
}

// TestFrameServerPipelining writes several requests before reading any
// response; the server answers all of them in order with the right
// correlation IDs.
func TestFrameServerPipelining(t *testing.T) {
	const classes, features = 4, 5
	addr, _, _, shutdown := frameTestStack(t, classes, features)
	defer shutdown()
	fc := dialFrames(t, addr)
	defer fc.c.Close()

	row := []float64{1, -2, 0.5, 3, -1}
	const depth = 16
	for k := 0; k < depth; k++ {
		fc.enc.Begin(wire.OpPredict, uint64(1000+k))
		fc.enc.BatchHeader(1, features, 0)
		fc.enc.DenseRow(row)
		if _, err := fc.c.Write(fc.enc.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < depth; k++ {
		h, p, err := fc.r.Next()
		if err != nil {
			t.Fatal(err)
		}
		if h.Op != wire.OpPredictResp || h.Corr != uint64(1000+k) {
			t.Fatalf("response %d: header %+v", k, h)
		}
		out := make([]int, 1)
		if _, _, err := wire.DecodePredictResp(p, out); err != nil {
			t.Fatal(err)
		}
	}
}

// TestFrameServerMalformedFrameClosesConn checks the protocol contract:
// a request-shaped error keeps the connection, a framing error answers
// best-effort and closes it.
func TestFrameServerMalformedFrameClosesConn(t *testing.T) {
	addr, _, _, shutdown := frameTestStack(t, 4, 5)
	defer shutdown()
	fc := dialFrames(t, addr)
	defer fc.c.Close()

	// Request-shaped: empty batch → error frame, connection survives.
	fc.enc.Begin(wire.OpPredict, 1)
	fc.enc.BatchHeader(0, 5, 0)
	h, p := fc.roundTrip(t)
	if h.Op != wire.OpError {
		t.Fatalf("empty batch answered %#x", h.Op)
	}
	if code, _, _ := wire.DecodeError(p); code != wire.CodeBadRequest {
		t.Fatalf("empty batch code %d", code)
	}
	fc.enc.Begin(wire.OpMeta, 2)
	if h, _ = fc.roundTrip(t); h.Op != wire.OpMetaResp {
		t.Fatal("connection did not survive a request-shaped error")
	}

	// Framing-level: garbage bytes → error frame (corr 0), then EOF.
	if _, err := fc.c.Write([]byte("this is not a NAWP frame....")); err != nil {
		t.Fatal(err)
	}
	h, p, err := fc.r.Next()
	if err != nil {
		t.Fatalf("expected a best-effort error frame, got %v", err)
	}
	if h.Op != wire.OpError || h.Corr != 0 {
		t.Fatalf("framing error answered %+v", h)
	}
	if code, _, _ := wire.DecodeError(p); code != wire.CodeBadRequest {
		t.Fatalf("framing error code %d", code)
	}
	fc.c.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, _, err := fc.r.Next(); err == nil {
		t.Fatal("connection stayed open after a framing error")
	} else if errors.Is(err, wire.ErrBadFrame) {
		t.Fatalf("expected EOF-like close, got %v", err)
	}
}
