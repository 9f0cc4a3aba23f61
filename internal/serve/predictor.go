package serve

import (
	"fmt"
	"sync"

	"newtonadmm/internal/device"
	"newtonadmm/internal/linalg"
	"newtonadmm/internal/loss"
	"newtonadmm/internal/sparse"
	"newtonadmm/internal/wire"
)

// Predictor scores feature rows against one immutable weight snapshot.
// It is safe for concurrent use (calls serialize on an internal mutex —
// the device is a single-stream resource); the intended high-throughput
// path is a single Batcher feeding it coalesced batches.
//
// All staging buffers grow to the high-water batch shape and are then
// reused, so steady-state calls perform zero heap allocations (pinned by
// AllocsPerRun tests).
type Predictor struct {
	mu sync.Mutex

	dev     *device.Device
	ownsDev bool
	scorer  *loss.Softmax

	weights  []float64
	classes  int
	features int

	// Dense staging: rows are copied into a grow-only flat buffer viewed
	// through a persistent Matrix header.
	denseBuf  []float64
	denseMat  linalg.Matrix
	denseFeat loss.Features // cached Dense{&denseMat}: no per-call interface conversion

	// CSR staging: a persistent CSR whose slices grow to the high-water
	// batch shape; it holds no kernel state, the device's launch does.
	csr     sparse.CSR
	csrFeat loss.Features // cached Sparse{&csr}

	// ScoresBatch's per-kind tiles for mixed batches (grow-only).
	denseTile, sparseTile []float64
}

// NewPredictor builds a predictor for a (Classes-1)*Features weight
// vector, creating its own device with the given worker count
// (workers <= 0 selects NumCPU). Close releases the device.
func NewPredictor(weights []float64, classes, features, workers int) (*Predictor, error) {
	dev := device.New("serve", workers)
	p, err := NewPredictorOn(dev, weights, classes, features)
	if err != nil {
		dev.Close() // don't leak the freshly created worker pool
		return nil, err
	}
	p.ownsDev = true
	return p, nil
}

// NewPredictorOn builds a predictor on an existing device. The caller
// keeps ownership of the device; Close will not release it.
func NewPredictorOn(dev *device.Device, weights []float64, classes, features int) (*Predictor, error) {
	if classes < 2 {
		return nil, fmt.Errorf("serve: need at least 2 classes, got %d", classes)
	}
	if features <= 0 {
		return nil, fmt.Errorf("serve: need positive feature count, got %d", features)
	}
	if want := (classes - 1) * features; len(weights) != want {
		return nil, fmt.Errorf("serve: weight vector has %d entries, want (classes-1)*features = %d", len(weights), want)
	}
	scorer, err := loss.NewScorer(dev, classes)
	if err != nil {
		return nil, err
	}
	p := &Predictor{
		dev:      dev,
		scorer:   scorer,
		weights:  weights,
		classes:  classes,
		features: features,
	}
	p.denseMat.Cols = features
	p.denseFeat = loss.Dense{M: &p.denseMat}
	p.csr.NumCols = features
	p.csr.RowPtr = append(p.csr.RowPtr[:0], 0)
	p.csrFeat = loss.Sparse{M: &p.csr}
	return p, nil
}

// Classes returns the model's class count C.
func (p *Predictor) Classes() int { return p.classes }

// Features returns the model's raw feature dimension.
func (p *Predictor) Features() int { return p.features }

// Device returns the predictor's device (for stats reporting).
func (p *Predictor) Device() *device.Device { return p.dev }

// Close releases the predictor's device if it owns one. The predictor
// must not be used afterwards. Close is idempotent.
func (p *Predictor) Close() {
	if p.ownsDev {
		p.dev.Close()
	}
}

// stageDense copies rows into the dense staging matrix. Every row must
// have exactly Features entries.
func (p *Predictor) stageDense(rows [][]float64) error {
	n := len(rows)
	if need := n * p.features; cap(p.denseBuf) < need {
		p.denseBuf = make([]float64, need)
	}
	flat := p.denseBuf[:n*p.features]
	for i, r := range rows {
		if len(r) != p.features {
			return fmt.Errorf("serve: row %d has %d features, model expects %d", i, len(r), p.features)
		}
		copy(flat[i*p.features:(i+1)*p.features], r)
	}
	p.denseMat.Rows = n
	p.denseMat.Data = flat
	return nil
}

// stageCSR builds the staging CSR from per-row (indices, values) pairs.
// Indices must be strictly increasing within a row and inside
// [0, Features); values run parallel to indices.
func (p *Predictor) stageCSR(idx [][]int, val [][]float64) error {
	if len(idx) != len(val) {
		return fmt.Errorf("serve: %d index rows but %d value rows", len(idx), len(val))
	}
	p.csr.NumRows = len(idx)
	p.csr.RowPtr = p.csr.RowPtr[:1]
	p.csr.Col = p.csr.Col[:0]
	p.csr.Val = p.csr.Val[:0]
	for i := range idx {
		if len(idx[i]) != len(val[i]) {
			return fmt.Errorf("serve: row %d has %d indices but %d values", i, len(idx[i]), len(val[i]))
		}
		prev := -1
		for k, j := range idx[i] {
			if j < 0 || j >= p.features {
				return fmt.Errorf("serve: row %d index %d outside [0,%d)", i, j, p.features)
			}
			if j <= prev {
				return fmt.Errorf("serve: row %d indices not strictly increasing at %d", i, j)
			}
			prev = j
			p.csr.Col = append(p.csr.Col, j)
			p.csr.Val = append(p.csr.Val, val[i][k])
		}
		p.csr.RowPtr = append(p.csr.RowPtr, len(p.csr.Col))
	}
	return nil
}

// PredictDense writes the predicted class of each dense row into
// out[:len(rows)].
func (p *Predictor) PredictDense(rows [][]float64, out []int) error {
	if len(rows) == 0 {
		return nil
	}
	if len(out) < len(rows) {
		return fmt.Errorf("serve: output buffer has %d slots for %d rows", len(out), len(rows))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.stageDense(rows); err != nil {
		return err
	}
	p.scorer.PredictInto(p.denseFeat, p.weights, out[:len(rows)])
	return nil
}

// PredictCSR writes the predicted class of each sparse row into
// out[:len(idx)].
func (p *Predictor) PredictCSR(idx [][]int, val [][]float64, out []int) error {
	if len(idx) == 0 {
		return nil
	}
	if len(out) < len(idx) {
		return fmt.Errorf("serve: output buffer has %d slots for %d rows", len(out), len(idx))
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.stageCSR(idx, val); err != nil {
		return err
	}
	p.scorer.PredictInto(p.csrFeat, p.weights, out[:len(idx)])
	return nil
}

// ProbaDense writes the C-class probability vector of each dense row
// into out (row-major len(rows) x Classes, reference class last).
func (p *Predictor) ProbaDense(rows [][]float64, out []float64) error {
	if len(rows) == 0 {
		return nil
	}
	if len(out) < len(rows)*p.classes {
		return fmt.Errorf("serve: proba buffer has %d entries for %d rows x %d classes", len(out), len(rows), p.classes)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.stageDense(rows); err != nil {
		return err
	}
	p.scorer.ProbaInto(p.denseFeat, p.weights, out[:len(rows)*p.classes])
	return nil
}

// ProbaCSR writes the C-class probability vector of each sparse row into
// out (row-major len(idx) x Classes, reference class last).
func (p *Predictor) ProbaCSR(idx [][]int, val [][]float64, out []float64) error {
	if len(idx) == 0 {
		return nil
	}
	if len(out) < len(idx)*p.classes {
		return fmt.Errorf("serve: proba buffer has %d entries for %d rows x %d classes", len(out), len(idx), p.classes)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.stageCSR(idx, val); err != nil {
		return err
	}
	p.scorer.ProbaInto(p.csrFeat, p.weights, out[:len(idx)*p.classes])
	return nil
}

// ScoresBatch writes the raw explicit-class score tile of every row of
// rows into out (rows x cols row-major, arrival order, no softmax
// transform). This is the partial-logit surface of the class-sharded
// serving tier: a shard replica's predictor holds only its slice of the
// weight rows (its Classes is the slice width plus the implicit
// reference class) and the router merges the partial columns before the
// argmax/probability transform. cols is the width the caller planned;
// when it no longer matches (a shape-changing reload behind the
// caller's back) ScoresBatch fails with ErrModelShapeChanged and writes
// nothing. cols == 0 means not planned and takes the predictor's width.
// A single-kind batch is scored straight into out, a mixed one through
// grow-only per-kind tiles interleaved back into arrival order.
func (p *Predictor) ScoresBatch(rows *wire.Batch, cols int, out []float64) error {
	m := p.classes - 1
	if cols != 0 && cols != m {
		return fmt.Errorf("%w (shard now %d explicit classes, request planned %d)", ErrModelShapeChanged, m, cols)
	}
	n, nd := rows.Rows(), len(rows.Dense)
	if len(out) < n*m {
		return fmt.Errorf("serve: score buffer has %d entries for %d rows x %d explicit classes", len(out), n, m)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	denseOut, sparseOut := out[:nd*m], out[:(n-nd)*m]
	if nd > 0 && nd < n {
		p.denseTile = grow(p.denseTile, nd*m)
		p.sparseTile = grow(p.sparseTile, (n-nd)*m)
		denseOut, sparseOut = p.denseTile, p.sparseTile
	}
	if nd > 0 {
		if err := p.stageDense(rows.Dense); err != nil {
			return err
		}
		p.scorer.ScoresInto(p.denseFeat, p.weights, denseOut)
	}
	if nd < n {
		if err := p.stageCSR(rows.Idx, rows.Val); err != nil {
			return err
		}
		p.scorer.ScoresInto(p.csrFeat, p.weights, sparseOut)
	}
	if nd == 0 || nd == n {
		return nil
	}
	d, s := 0, 0
	for i, sparse := range rows.Kind {
		if sparse {
			copy(out[i*m:(i+1)*m], sparseOut[s*m:(s+1)*m])
			s++
		} else {
			copy(out[i*m:(i+1)*m], denseOut[d*m:(d+1)*m])
			d++
		}
	}
	return nil
}

// grow returns buf resized to n, reallocating only when it is too small.
func grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// ArgmaxProba returns the class of a probability vector with exactly the
// tie-breaking of loss.PredictInto: the reference class (last entry)
// wins ties against explicit classes, and among explicit classes the
// lowest index wins.
func ArgmaxProba(probs []float64) int {
	ref := len(probs) - 1
	best, bestP := ref, probs[ref]
	for c := 0; c < ref; c++ {
		if probs[c] > bestP {
			best, bestP = c, probs[c]
		}
	}
	return best
}
