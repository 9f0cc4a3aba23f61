package loss

import (
	"fmt"
	"math"

	"newtonadmm/internal/device"
	"newtonadmm/internal/linalg"
)

// Softmax is the paper's multi-class cross-entropy objective (eq. 8) with
// L2 regularization g(x) = L2/2 ||x||^2 in the *sum* (not mean) convention:
//
//	F(w) = sum_i [ log(1 + sum_{c<C-1} e^{<a_i, w_c>}) - <a_i, w_{y_i}> ] + L2/2 ||w||^2
//
// Classes are labeled 0..C-1; class C-1 is the zero-weight reference class,
// so the parameter vector has length (C-1)*p laid out as C-1 contiguous
// blocks of p. For C=2 this is exactly binary logistic regression.
//
// All bulk work (scores, probabilities, gradient accumulation) runs as
// device kernels, and the log-sum-exp stabilization of paper §6 guarantees
// every exponential has a non-positive argument. The score matrix and its
// log-sum-exp / residual sweep are fused into a single MulNTReduce launch
// (one pass over the n x m tile while it is cache-hot), and every scratch
// buffer and kernel functor is cached on the problem, so steady-state
// Value/Gradient/Hessian evaluations perform zero heap allocations.
type Softmax struct {
	X   Features
	Y   []int // labels in [0, C)
	C   int   // number of classes, >= 2
	L2  float64
	Dev *device.Device

	// scores is the n x (C-1) fused scratch tile: Value leaves raw scores
	// in it, Gradient and HessianDiag overwrite it in place with
	// probabilities/residuals during the same launch.
	scores []float64

	// Persistent fused-launch functors, created alongside the scratch so
	// steady-state evaluations pass the same func values to the device
	// (no per-call closure allocation).
	valueFn func(lo, hi int) float64
	gradFn  func(lo, hi int) float64
	probFn  func(lo, hi int) float64

	hess *softmaxHessian // cached Hessian operator, rebound by HessianAt

	// Prediction scratch (grow-only, shared by Predict/Accuracy).
	predScores []float64
	predTarget []int
	predFn     func(lo, hi int)
	predOut    []int

	// Probability scratch: ProbaInto expands the n x (C-1) score tile
	// into n x C probabilities (reference class included) in one launch.
	probaTarget []float64
	probaFn     func(lo, hi int) float64
}

// NewSoftmax validates inputs and returns the objective.
func NewSoftmax(dev *device.Device, x Features, y []int, classes int, l2 float64) (*Softmax, error) {
	if classes < 2 {
		return nil, fmt.Errorf("loss: need at least 2 classes, got %d", classes)
	}
	if x.Rows() != len(y) {
		return nil, fmt.Errorf("loss: %d rows but %d labels", x.Rows(), len(y))
	}
	if l2 < 0 {
		return nil, fmt.Errorf("loss: negative L2 %v", l2)
	}
	for i, c := range y {
		if c < 0 || c >= classes {
			return nil, fmt.Errorf("loss: label %d at row %d outside [0,%d)", c, i, classes)
		}
	}
	return &Softmax{X: x, Y: y, C: classes, L2: l2, Dev: dev}, nil
}

// NewScorer returns a training-data-free Softmax used purely for
// inference: PredictInto, ProbaInto, and Accuracy against explicitly
// passed features all work; Value/Gradient/HessianAt (which need the
// training set) must not be called. This is what the serving layer's
// Predictor wraps — it reuses the same cached prediction scratch and
// device arena as the training-side evaluations, so steady-state scoring
// performs zero heap allocations.
func NewScorer(dev *device.Device, classes int) (*Softmax, error) {
	if classes < 2 {
		return nil, fmt.Errorf("loss: need at least 2 classes, got %d", classes)
	}
	return &Softmax{X: Dense{M: linalg.NewMatrix(0, 0)}, Y: nil, C: classes, Dev: dev}, nil
}

// N returns the number of local samples.
func (s *Softmax) N() int { return s.X.Rows() }

// Dim returns (C-1) * p.
func (s *Softmax) Dim() int { return (s.C - 1) * s.X.Cols() }

func (s *Softmax) ensureScratch() {
	n, m := s.X.Rows(), s.C-1
	if len(s.scores) == n*m && s.valueFn != nil {
		return
	}
	s.scores = make([]float64, n*m)
	// The functors close over the problem, not over per-call state, so
	// they are created exactly once per scratch shape.
	s.valueFn = func(lo, hi int) float64 {
		var part float64
		for i := lo; i < hi; i++ {
			row := s.scores[i*m : (i+1)*m]
			part += lseRow(row, nil)
			if yi := s.Y[i]; yi < m {
				part -= row[yi]
			}
		}
		return part
	}
	s.gradFn = func(lo, hi int) float64 {
		var part float64
		for i := lo; i < hi; i++ {
			row := s.scores[i*m : (i+1)*m]
			yi := s.Y[i]
			var sc float64
			if yi < m {
				sc = row[yi] // read the label score before the in-place overwrite
			}
			part += lseRow(row, row) // scores -> probabilities in place
			if yi < m {
				part -= sc
				row[yi] -= 1 // residual = prob - onehot
			}
		}
		return part
	}
	s.probFn = func(lo, hi int) float64 {
		for i := lo; i < hi; i++ {
			row := s.scores[i*m : (i+1)*m]
			lseRow(row, row)
		}
		return 0
	}
}

// lseRow computes the stabilized log-sum-exp of one score row:
// M = max(0, s_0..s_{m-1}), alpha = e^{-M} + sum_c e^{s_c - M},
// returning M + log(alpha) and leaving probabilities in prob if non-nil
// (prob_c = e^{s_c - M} / alpha; the implicit reference class has
// probability e^{-M}/alpha, not stored). prob may alias scores: each
// element is read before it is overwritten.
func lseRow(scores []float64, prob []float64) float64 {
	m := 0.0
	for _, v := range scores {
		if v > m {
			m = v
		}
	}
	alpha := math.Exp(-m)
	for _, v := range scores {
		alpha += math.Exp(v - m)
	}
	if prob != nil {
		inv := 1 / alpha
		for c, v := range scores {
			prob[c] = math.Exp(v-m) * inv
		}
	}
	return m + math.Log(alpha)
}

// Value evaluates the objective at w. Scores and their log-sum-exp sweep
// run as one fused launch.
func (s *Softmax) Value(w []float64) float64 {
	s.ensureScratch()
	total := s.Dev.MulNTReduce(s.X.Operand(), w, s.C-1, s.scores, s.valueFn)
	nrm := linalg.Nrm2(w)
	return total + 0.5*s.L2*nrm*nrm
}

// Gradient fills g with the gradient at w and returns the objective value.
// Score matrix, log-sum-exp, residual, and gradient accumulation run as
// ONE fused launch (the "fused" kernel the paper runs on the GPU): the
// residual overwrites the score tile in place and the outer products
// accumulate panel by panel while the features are cache-hot, so each
// evaluation streams X once and the n x m scratch exactly once.
func (s *Softmax) Gradient(w, g []float64) float64 {
	if len(g) != s.Dim() {
		panic("loss: gradient buffer dimension mismatch")
	}
	s.ensureScratch()
	total := s.Dev.FusedGradient(s.X.Operand(), w, s.C-1, s.scores, s.gradFn, g)
	linalg.Axpy(s.L2, w, g)
	nrm := linalg.Nrm2(w)
	return total + 0.5*s.L2*nrm*nrm
}

// softmaxHessian caches the per-sample probabilities at a fixed w so each
// CG iteration costs two feature products. The operator and its buffers
// are owned by the parent Softmax and rebound on every HessianAt call.
type softmaxHessian struct {
	s       *Softmax
	probs   []float64 // n x (C-1), probabilities at the anchor w
	u       []float64 // n x (C-1) scratch for X*v
	probFn  func(lo, hi int) float64
	applyFn func(lo, hi int) float64
}

// HessianAt returns the Hessian operator at w. The Gauss structure of the
// softmax Hessian is H = X^T diag-blocks(P) X + L2*I where each sample's
// block is diag(p_i) - p_i p_i^T over the C-1 explicit classes.
//
// The operator reuses scratch cached on the problem: it stays valid until
// the next HessianAt call on the same Softmax, which rebinds the shared
// buffers to the new anchor point (the Problem contract already promises
// no concurrent use).
func (s *Softmax) HessianAt(w []float64) HessianOperator {
	n, m := s.X.Rows(), s.C-1
	h := s.hess
	if h == nil || len(h.probs) != n*m {
		h = &softmaxHessian{
			s:     s,
			probs: make([]float64, n*m),
			u:     make([]float64, n*m),
		}
		h.probFn = func(lo, hi int) float64 {
			for i := lo; i < hi; i++ {
				row := h.probs[i*m : (i+1)*m]
				lseRow(row, row) // overwrite scores with probabilities in place
			}
			return 0
		}
		h.applyFn = func(lo, hi int) float64 {
			for i := lo; i < hi; i++ {
				p := h.probs[i*m : (i+1)*m]
				u := h.u[i*m : (i+1)*m]
				var pu float64
				for c := 0; c < m; c++ {
					pu += p[c] * u[c]
				}
				for c := 0; c < m; c++ {
					u[c] = p[c] * (u[c] - pu)
				}
			}
			return 0
		}
		s.hess = h
	}
	s.Dev.MulNTReduce(s.X.Operand(), w, m, h.probs, h.probFn)
	return h
}

// Apply computes hv = H v in one fused launch:
//
//	u_i = X_i . v-blocks, r_{i,c} = p_{i,c} (u_{i,c} - <p_i, u_i>)
//	in place over u, and hv = X^T r + L2 * v — the same single-pass
//	pipeline as Gradient, so each CG iteration streams X once.
func (h *softmaxHessian) Apply(v, hv []float64) {
	s := h.s
	if len(v) != s.Dim() || len(hv) != s.Dim() {
		panic("loss: HessVec dimension mismatch")
	}
	s.Dev.FusedGradient(s.X.Operand(), v, s.C-1, h.u, h.applyFn, hv)
	linalg.Axpy(s.L2, v, hv)
}

func (s *Softmax) ensurePredict(rows int) {
	m := s.C - 1
	if need := rows * m; cap(s.predScores) < need {
		s.predScores = make([]float64, need)
	}
	if s.predFn == nil {
		s.predFn = func(lo, hi int) {
			for i := lo; i < hi; i++ {
				row := s.predScores[i*m : (i+1)*m]
				best, bestScore := s.C-1, 0.0 // reference class has score 0
				for c, v := range row {
					if v > bestScore {
						best, bestScore = c, v
					}
				}
				s.predTarget[i] = best
			}
		}
	}
}

// Predict returns the argmax class for every row of x under weights w,
// following the paper's classification rule (§5): the reference class
// C-1 wins when every explicit score is negative.
func (s *Softmax) Predict(x Features, w []float64) []int {
	out := make([]int, x.Rows())
	s.PredictInto(x, w, out)
	return out
}

// PredictInto writes the argmax class of every row of x into out
// (length x.Rows()), reusing cached score scratch so steady-state calls
// allocate nothing. This is what the evaluation harness calls every
// trace point.
func (s *Softmax) PredictInto(x Features, w []float64, out []int) {
	rows := x.Rows()
	if len(out) != rows {
		panic("loss: PredictInto output dimension mismatch")
	}
	if rows == 0 {
		return
	}
	m := s.C - 1
	s.ensurePredict(rows)
	scores := s.predScores[:rows*m]
	s.Dev.MulNT(x.Operand(), w, m, scores)
	s.predTarget = out
	s.Dev.ParallelFor(rows, 0, s.predFn)
	s.predTarget = nil
}

// probaRow expands one row of explicit-class scores into the full
// C-class probability vector (reference class last), using the same
// stabilization as lseRow. dst has length len(scores)+1 and must not
// alias scores.
func probaRow(scores, dst []float64) {
	m := 0.0
	for _, v := range scores {
		if v > m {
			m = v
		}
	}
	ref := math.Exp(-m)
	alpha := ref
	for c, v := range scores {
		e := math.Exp(v - m)
		dst[c] = e
		alpha += e
	}
	inv := 1 / alpha
	for c := range scores {
		dst[c] *= inv
	}
	dst[len(scores)] = ref * inv
}

// ProbaInto writes the softmax class probabilities of every row of x
// under weights w into out, row-major x.Rows() x C with the reference
// class in column C-1. Scores and the probability transform run as one
// fused MulNTReduce launch, and all scratch is cached on the problem, so
// steady-state calls allocate nothing. This is the /v1/proba kernel of
// the serving layer.
func (s *Softmax) ProbaInto(x Features, w []float64, out []float64) {
	rows := x.Rows()
	if len(out) != rows*s.C {
		panic("loss: ProbaInto output dimension mismatch")
	}
	if rows == 0 {
		return
	}
	m := s.C - 1
	s.ensurePredict(rows)
	if s.probaFn == nil {
		s.probaFn = func(lo, hi int) float64 {
			mm := s.C - 1
			for i := lo; i < hi; i++ {
				probaRow(s.predScores[i*mm:(i+1)*mm], s.probaTarget[i*s.C:(i+1)*s.C])
			}
			return 0
		}
	}
	scores := s.predScores[:rows*m]
	s.probaTarget = out
	s.Dev.MulNTReduce(x.Operand(), w, m, scores, s.probaFn)
	s.probaTarget = nil
}

// Accuracy returns the fraction of rows of x classified as y under w.
func (s *Softmax) Accuracy(x Features, y []int, w []float64) float64 {
	if x.Rows() == 0 {
		return 0
	}
	if cap(s.predOut) < x.Rows() {
		s.predOut = make([]int, x.Rows())
	}
	pred := s.predOut[:x.Rows()]
	s.PredictInto(x, w, pred)
	correct := 0
	for i, p := range pred {
		if p == y[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(y))
}

// Subproblem returns a new Softmax over the given sample rows with the
// regularization scaled by the subset fraction, so that summing the
// subproblem objectives over a partition of the rows reproduces the full
// objective. This is how data is sharded across cluster ranks and how SGD
// mini-batches are drawn.
func (s *Softmax) Subproblem(idx []int) *Softmax {
	y := make([]int, len(idx))
	for k, i := range idx {
		y[k] = s.Y[i]
	}
	frac := 0.0
	if s.X.Rows() > 0 {
		frac = float64(len(idx)) / float64(s.X.Rows())
	}
	return &Softmax{
		X:   s.X.Subset(idx),
		Y:   y,
		C:   s.C,
		L2:  s.L2 * frac,
		Dev: s.Dev,
	}
}
