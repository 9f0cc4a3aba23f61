package loss

import "newtonadmm/internal/linalg"

// Augmented is the ADMM local subproblem objective of paper eq. (6a):
//
//	phi_i(x) = f_i(x) + Rho/2 ||x - V||^2, with V = z + y_i/Rho,
//
// using the identity ||z - x + y/rho||^2 = ||x - (z + y/rho)||^2. Its
// gradient is grad f + Rho (x - V) and its Hessian is H_f + Rho*I, so the
// proximal term simultaneously conditions the local Newton system.
type Augmented struct {
	Base Problem
	Rho  float64
	V    []float64
}

// NewAugmented builds the augmented subproblem. V is captured by reference;
// callers update it between ADMM iterations.
func NewAugmented(base Problem, rho float64, v []float64) *Augmented {
	if len(v) != base.Dim() {
		panic("loss: Augmented anchor dimension mismatch")
	}
	return &Augmented{Base: base, Rho: rho, V: v}
}

// Dim returns the base dimension.
func (a *Augmented) Dim() int { return a.Base.Dim() }

// Value evaluates phi(x).
func (a *Augmented) Value(w []float64) float64 {
	d := linalg.Dist2(w, a.V)
	return a.Base.Value(w) + float64(0.5*a.Rho*d*d)
}

// Gradient fills g and returns phi(x).
func (a *Augmented) Gradient(w, g []float64) float64 {
	val := a.Base.Gradient(w, g)
	for i := range g {
		g[i] += float64(a.Rho * (w[i] - a.V[i]))
	}
	d := linalg.Dist2(w, a.V)
	return val + float64(0.5*a.Rho*d*d)
}

type augmentedHessian struct {
	base HessianOperator
	rho  float64
}

// HessianAt returns H_f(w) + Rho*I.
func (a *Augmented) HessianAt(w []float64) HessianOperator {
	return &augmentedHessian{base: a.Base.HessianAt(w), rho: a.Rho}
}

// HessianDiag fills diag with diag(H_f) + Rho when the base problem
// supports diagonals; it panics otherwise (callers gate on the
// DiagHessian interface of the base).
func (a *Augmented) HessianDiag(w, diag []float64) {
	a.Base.(DiagHessian).HessianDiag(w, diag)
	for j := range diag {
		diag[j] += a.Rho
	}
}

func (h *augmentedHessian) Apply(v, hv []float64) {
	h.base.Apply(v, hv)
	linalg.Axpy(h.rho, v, hv)
}

// Scaled multiplies a problem by a constant factor. GIANT uses it to turn
// the local-shard Hessian sum into an estimate of the global Hessian
// (factor n/n_i).
type Scaled struct {
	Base   Problem
	Factor float64
}

// Dim returns the base dimension.
func (s *Scaled) Dim() int { return s.Base.Dim() }

// Value returns Factor * base value.
func (s *Scaled) Value(w []float64) float64 { return s.Factor * s.Base.Value(w) }

// Gradient fills g with Factor * base gradient and returns the scaled value.
func (s *Scaled) Gradient(w, g []float64) float64 {
	val := s.Base.Gradient(w, g)
	linalg.Scal(s.Factor, g)
	return s.Factor * val
}

type scaledHessian struct {
	base   HessianOperator
	factor float64
}

// HessianAt returns Factor * base Hessian.
func (s *Scaled) HessianAt(w []float64) HessianOperator {
	return &scaledHessian{base: s.Base.HessianAt(w), factor: s.Factor}
}

// HessianDiag fills diag with Factor * base diagonal when the base
// problem supports diagonals.
func (s *Scaled) HessianDiag(w, diag []float64) {
	s.Base.(DiagHessian).HessianDiag(w, diag)
	for j := range diag {
		diag[j] *= s.Factor
	}
}

func (h *scaledHessian) Apply(v, hv []float64) {
	h.base.Apply(v, hv)
	linalg.Scal(h.factor, hv)
}

// CanDiag reports whether prob supports HessianDiag all the way down the
// wrapper chain (Augmented and Scaled forward to their base problems, so
// asking them directly would claim support their base may lack).
func CanDiag(prob Problem) bool {
	switch p := prob.(type) {
	case *Augmented:
		return CanDiag(p.Base)
	case *Scaled:
		return CanDiag(p.Base)
	default:
		_, ok := prob.(DiagHessian)
		return ok
	}
}

// Quadratic is the test problem F(w) = 1/2 w^T A w - b^T w for a symmetric
// positive definite A. Newton's method converges on it in one exact step,
// which makes it the canonical oracle for the CG and Newton solvers.
type Quadratic struct {
	A *linalg.Matrix // d x d, symmetric positive definite
	B []float64
}

// Dim returns the number of variables.
func (q *Quadratic) Dim() int { return len(q.B) }

// Value evaluates the quadratic.
func (q *Quadratic) Value(w []float64) float64 {
	aw := make([]float64, len(w))
	linalg.MulNT(q.A, w, 1, aw) // A is symmetric: A*w == (w^T A)^T
	return float64(0.5*linalg.Dot(w, aw)) - linalg.Dot(q.B, w)
}

// Gradient fills g = A w - b and returns the value.
func (q *Quadratic) Gradient(w, g []float64) float64 {
	linalg.MulNT(q.A, w, 1, g)
	val := float64(0.5*linalg.Dot(w, g)) - linalg.Dot(q.B, w)
	linalg.Sub(g, q.B)
	return val
}

type quadHessian struct{ a *linalg.Matrix }

// HessianAt returns the constant Hessian A.
func (q *Quadratic) HessianAt(w []float64) HessianOperator { return quadHessian{a: q.A} }

func (h quadHessian) Apply(v, hv []float64) { linalg.MulNT(h.a, v, 1, hv) }
