// Package cg implements the conjugate gradient method with the relative
// residual early-stopping rule of paper eq. (3b): CG on H p = -g stops once
// ||H p + g|| <= theta * ||g||, which (Roosta-Khorasani & Mahoney) preserves
// the convergence of exact Newton for moderate theta. A negative-curvature
// guard makes the solver safe on merely positive semidefinite operators.
package cg

import (
	"newtonadmm/internal/linalg"
	"newtonadmm/internal/loss"
)

// Options controls the CG iteration.
type Options struct {
	// MaxIters caps CG iterations; <= 0 selects dim(b).
	MaxIters int
	// RelTol is the relative residual tolerance theta in (0,1);
	// <= 0 selects 1e-4 (the paper's setting for the Figure 1 study).
	RelTol float64
	// Work optionally supplies reusable iteration scratch; nil allocates
	// per call. Outer solvers that run CG every iteration (Newton,
	// Newton-ADMM ranks) pass one Workspace so the inner solve does no
	// steady-state allocation.
	Work *Workspace
}

// Workspace holds the CG iteration vectors (residual, directions,
// right-hand side, preconditioner scratch). A Workspace may be reused
// across solves of the same or different dimensions; it grows to the
// largest dimension seen.
type Workspace struct {
	r, z, p, hp, b, invd []float64
}

// vec returns a zeroed length-dim view of buf, growing it if needed.
func (w *Workspace) vec(buf *[]float64, dim int) []float64 {
	if cap(*buf) < dim {
		*buf = make([]float64, dim)
	}
	v := (*buf)[:dim]
	linalg.Zero(v)
	return v
}

// workspace returns the scratch to use: the caller-provided one, or a
// fresh private one matching the old allocate-per-call behaviour.
func (o Options) workspace() *Workspace {
	if o.Work != nil {
		return o.Work
	}
	return &Workspace{}
}

// Result reports how the CG iteration terminated.
type Result struct {
	Iters       int     // iterations performed
	Residual    float64 // final ||H x - b||
	RelResidual float64 // final residual divided by ||b||
	Converged   bool    // hit the tolerance (rather than the cap)
	NegCurve    bool    // stopped on (near-)zero or negative curvature
}

func (o Options) withDefaults(dim int) Options {
	if o.MaxIters <= 0 {
		o.MaxIters = dim
	}
	if o.RelTol <= 0 {
		o.RelTol = 1e-4
	}
	return o
}

// Solve runs CG on H x = b starting from x (which is updated in place;
// pass a zero vector for the usual Newton system). H must be symmetric
// positive semidefinite.
func Solve(h loss.HessianOperator, b, x []float64, opts Options) Result {
	dim := len(b)
	if len(x) != dim {
		panic("cg: x/b dimension mismatch")
	}
	opts = opts.withDefaults(dim)

	ws := opts.workspace()
	r := ws.vec(&ws.r, dim)   // residual b - Hx
	p := ws.vec(&ws.p, dim)   // search direction
	hp := ws.vec(&ws.hp, dim) // H p

	bNorm := linalg.Nrm2(b)
	if bNorm == 0 {
		linalg.Zero(x)
		return Result{Converged: true}
	}

	// r = b - H x. From x = 0, as every NewtonDirection starts, H·x is
	// +0 in every element for finite data, so r is b bit for bit and
	// the product is skipped.
	if isZero(x) {
		linalg.Copy(r, b)
	} else {
		h.Apply(x, hp)
		linalg.Waxpby(1, b, -1, hp, r)
	}
	linalg.Copy(p, r)
	rsOld := linalg.Dot(r, r)

	res := Result{}
	for k := 0; k < opts.MaxIters; k++ {
		rNorm := linalg.Nrm2(r)
		res.Residual = rNorm
		res.RelResidual = rNorm / bNorm
		if res.RelResidual <= opts.RelTol {
			res.Converged = true
			return res
		}
		h.Apply(p, hp)
		curv := linalg.Dot(p, hp)
		if curv <= 1e-14*linalg.Dot(p, p) {
			// Direction of (numerically) zero or negative curvature: the
			// operator is not PD along p. Return the iterate so far; for
			// k=0 that leaves x as the caller's initial point.
			res.NegCurve = true
			return res
		}
		alpha := rsOld / curv
		linalg.Axpy(alpha, p, x)
		linalg.Axpy(-alpha, hp, r)
		rsNew := linalg.Dot(r, r)
		beta := rsNew / rsOld
		linalg.Waxpby(1, r, beta, p, p)
		rsOld = rsNew
		res.Iters = k + 1
	}
	rNorm := linalg.Nrm2(r)
	res.Residual = rNorm
	res.RelResidual = rNorm / bNorm
	res.Converged = res.RelResidual <= opts.RelTol
	return res
}

// isZero reports whether every element of x is ±0.
func isZero(x []float64) bool {
	for _, v := range x {
		if v != 0 {
			return false
		}
	}
	return true
}

// NewtonDirection solves H p = -g for the Newton step p (overwritten,
// starting from zero). If CG makes no progress (immediate negative
// curvature), it falls back to the steepest-descent direction -g so the
// outer line search always receives a descent direction.
func NewtonDirection(h loss.HessianOperator, g, p []float64, opts Options) Result {
	ws := opts.workspace()
	b := ws.vec(&ws.b, len(g))
	linalg.Waxpby(-1, g, 0, g, b) // b = -g
	linalg.Zero(p)
	res := Solve(h, b, p, opts)
	if !anyNonzero(p) {
		linalg.Copy(p, b) // fallback: steepest descent
	}
	return res
}

// anyNonzero reports whether some element of x is nonzero and not NaN:
// exactly when Nrm2(x) != 0, but it stops at the first such element and
// divides nothing.
func anyNonzero(x []float64) bool {
	for _, v := range x {
		if v < 0 || v > 0 {
			return true
		}
	}
	return false
}
