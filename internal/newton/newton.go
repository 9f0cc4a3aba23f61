// Package newton implements the paper's Algorithm 1: the single-node
// inexact Newton method. Each iteration forms the gradient, solves
// H p = -g approximately with CG under the relative-residual rule
// (eq. 3b), and takes an Armijo backtracking step (eq. 3c). It is both
// the inner solver run on every rank of Newton-ADMM and the oracle used
// to compute the "optimal" F(x*) for the theta convergence studies.
package newton

import (
	"math"

	"newtonadmm/internal/cg"
	"newtonadmm/internal/linalg"
	"newtonadmm/internal/linesearch"
	"newtonadmm/internal/loss"
)

// Options controls the Newton iteration.
type Options struct {
	// MaxIters caps outer Newton iterations; <=0 selects 100.
	MaxIters int
	// GradTol stops the iteration once ||g|| < GradTol; <=0 selects 1e-8.
	GradTol float64
	// CG configures the inner linear solver.
	CG cg.Options
	// Jacobi enables diagonal preconditioning of the CG solve when the
	// problem can produce its Hessian diagonal (an optional optimization
	// beyond the paper; helps on ill-conditioned problems).
	Jacobi bool
	// LineSearch configures the Armijo backtracking.
	LineSearch linesearch.Options
}

func (o Options) withDefaults() Options {
	if o.MaxIters <= 0 {
		o.MaxIters = 100
	}
	if o.GradTol <= 0 {
		o.GradTol = 1e-8
	}
	return o
}

// IterStat records one Newton iteration for convergence traces.
type IterStat struct {
	Iter     int
	Value    float64 // objective before the step
	GradNorm float64
	CGIters  int
	Alpha    float64
	NewValue float64 // objective after the step
}

// Result reports the terminal state of a Newton run. A run stopped by
// MaxIters does not evaluate the gradient at its last iterate, which
// nothing would read (Newton-ADMM takes one capped step per epoch):
// Value is then the line search's objective at x, GradNorm is NaN
// ("not measured", as in dist.Point) and Converged is false.
type Result struct {
	Iters     int
	Value     float64
	GradNorm  float64
	Converged bool // gradient tolerance reached
	Trace     []IterStat
}

// Solve minimizes prob starting from x, which is updated in place.
func Solve(prob loss.Problem, x []float64, opts Options) Result {
	opts = opts.withDefaults()
	dim := prob.Dim()
	if len(x) != dim {
		panic("newton: x dimension mismatch")
	}
	g := make([]float64, dim)
	p := make([]float64, dim)
	scratch := make([]float64, dim)
	if opts.CG.Work == nil {
		// One workspace for the whole run: the inner CG solves of every
		// outer iteration reuse the same vectors instead of allocating.
		opts.CG.Work = &cg.Workspace{}
	}
	// A nil diag is plain CG; a Jacobi run refills it every iteration.
	var diag []float64
	if opts.Jacobi && loss.CanDiag(prob) {
		diag = make([]float64, dim)
	}

	res := Result{}
	val := prob.Gradient(x, g)
	for k := 0; ; k++ {
		gNorm := linalg.Nrm2(g)
		res.Value = val
		res.GradNorm = gNorm
		if gNorm < opts.GradTol {
			res.Converged = true
			return res
		}
		h := prob.HessianAt(x)
		if diag != nil {
			prob.(loss.DiagHessian).HessianDiag(x, diag)
		}
		cgRes := cg.NewtonDirectionPrecond(h, diag, g, p, opts.CG)
		slope := linalg.Dot(p, g)
		ls := linesearch.Backtrack(
			linesearch.Objective(prob.Value, x, p, scratch),
			val, slope, opts.LineSearch,
		)
		stat := IterStat{
			Iter: k, Value: val, GradNorm: gNorm,
			CGIters: cgRes.Iters, Alpha: ls.Alpha, NewValue: ls.Value,
		}
		res.Trace = append(res.Trace, stat)
		if !ls.Satisfied && ls.Value >= val {
			// No progress possible along p within the budget: stop rather
			// than accept an increase.
			res.Iters = k
			return res
		}
		linalg.Axpy(ls.Alpha, p, x)
		res.Iters = k + 1
		if res.Iters == opts.MaxIters {
			res.Value, res.GradNorm = ls.Value, math.NaN()
			return res
		}
		val = prob.Gradient(x, g)
	}
}
