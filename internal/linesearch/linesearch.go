// Package linesearch implements the globalization strategies of the paper:
// the per-node backtracking Armijo search of Algorithm 3 (used by
// Newton-ADMM, which may terminate early on each worker independently) and
// the synchronized candidate-set variant used by GIANT, where every worker
// must evaluate the full step-size set S = {1, 2^-1, ..., 2^-k} so the
// master can pick one α globally (the redundancy Newton-ADMM avoids).
package linesearch

import "newtonadmm/internal/linalg"

// Options configures the backtracking search.
type Options struct {
	// Beta is the Armijo sufficient-decrease constant in (0,1); <=0 selects 1e-4.
	Beta float64
	// Shrink is the backtracking factor rho in (0,1); <=0 selects 0.5
	// (the paper halves the step each iteration).
	Shrink float64
	// MaxIters caps backtracking iterations; <=0 selects 10 (paper setting).
	MaxIters int
	// Initial is the first step size tried; <=0 selects 1 (full Newton step).
	Initial float64
}

func (o Options) withDefaults() Options {
	if o.Beta <= 0 {
		o.Beta = 1e-4
	}
	if o.Shrink <= 0 || o.Shrink >= 1 {
		o.Shrink = 0.5
	}
	if o.MaxIters <= 0 {
		o.MaxIters = 10
	}
	if o.Initial <= 0 {
		o.Initial = 1
	}
	return o
}

// Result reports the accepted step.
type Result struct {
	Alpha     float64 // accepted step size
	Value     float64 // objective at x + Alpha p
	Evals     int     // objective evaluations performed
	Satisfied bool    // Armijo condition held at Alpha
}

// Backtrack finds the largest alpha in {Initial * Shrink^i} satisfying the
// Armijo condition of paper eq. (3c):
//
//	F(x + alpha p) <= F(x) + alpha * Beta * <p, g>
//
// f evaluates the objective at x + alpha*p; f0 is F(x) and slope is
// <p, g(x)> (negative for a descent direction). If the budget runs out the
// last alpha tried is returned with Satisfied=false, matching Algorithm 3
// which breaks out of the loop after imax iterations.
func Backtrack(f func(alpha float64) float64, f0, slope float64, opts Options) Result {
	opts = opts.withDefaults()
	alpha := opts.Initial
	res := Result{}
	for i := 0; i < opts.MaxIters; i++ {
		val := f(alpha)
		res.Evals++
		if val <= f0+float64(alpha*opts.Beta*slope) {
			res.Alpha = alpha
			res.Value = val
			res.Satisfied = true
			return res
		}
		res.Alpha = alpha
		res.Value = val
		alpha *= opts.Shrink
	}
	return res
}

// EvalCandidates evaluates the objective at every step in the candidate
// set {Initial * Shrink^i : i = 0..MaxIters-1}, as each GIANT worker must
// (the values are then summed across workers by the master). It returns
// the candidate steps and the local objective values.
func EvalCandidates(f func(alpha float64) float64, opts Options) (alphas, values []float64) {
	opts = opts.withDefaults()
	alphas = make([]float64, opts.MaxIters)
	values = make([]float64, opts.MaxIters)
	alpha := opts.Initial
	for i := 0; i < opts.MaxIters; i++ {
		alphas[i] = alpha
		values[i] = f(alpha)
		alpha *= opts.Shrink
	}
	return alphas, values
}

// PickArmijo selects the largest candidate step whose (globally summed)
// objective value satisfies the Armijo condition. If none qualifies it
// falls back to the candidate with the smallest value, but only when that
// value is below f0; otherwise it returns alpha = 0 and value f0, so an
// accepted step never increases the objective. This is the master side of
// GIANT's synchronized line search.
func PickArmijo(alphas, values []float64, f0, slope, beta float64) (alpha, value float64) {
	if len(alphas) == 0 || len(alphas) != len(values) {
		panic("linesearch: bad candidate arrays")
	}
	if beta <= 0 {
		beta = 1e-4
	}
	bestIdx := 0
	for i := range alphas {
		if values[i] <= f0+float64(alphas[i]*beta*slope) {
			return alphas[i], values[i]
		}
		if values[i] < values[bestIdx] {
			bestIdx = i
		}
	}
	if values[bestIdx] < f0 {
		return alphas[bestIdx], values[bestIdx]
	}
	return 0, f0
}

// Objective evaluates prob at x + alpha*p reusing the provided scratch
// buffer. It is the standard adapter between problems and Backtrack.
func Objective(value func(w []float64) float64, x, p, scratch []float64) func(alpha float64) float64 {
	if len(scratch) != len(x) || len(p) != len(x) {
		panic("linesearch: Objective buffer dimension mismatch")
	}
	return func(alpha float64) float64 {
		linalg.Waxpby(1, x, alpha, p, scratch)
		return value(scratch)
	}
}
