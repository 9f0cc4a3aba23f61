package baselines

import (
	"fmt"

	"newtonadmm/internal/cg"
	"newtonadmm/internal/ckpt"
	"newtonadmm/internal/cluster"
	"newtonadmm/internal/dist"
	"newtonadmm/internal/newton"
)

// Newton is the paper's Algorithm 1, single-node inexact Newton-CG, as a
// one-rank solver: each epoch is one Newton iteration (gradient, CG
// solve, Armijo line search) on the whole training set, so the trace
// records every step. opts.MaxIters is ignored; an epoch taken after the
// gradient tolerance is met measures the gradient and moves nothing. Its
// recoverable state is the iterate; a run defaults to 100 epochs. iters,
// when non-nil, accumulates the Newton iterations taken.
func Newton(opts newton.Options, iters *int) dist.Solver {
	opts.MaxIters = 1
	return dist.Solver{
		Name:          "newton",
		DefaultEpochs: 100,
		ShardL2:       true,
		Fingerprint: func(f *ckpt.Fingerprinter) {
			f.Float(opts.GradTol)
			f.Int(opts.CG.MaxIters)
			f.Float(opts.CG.RelTol)
			f.Bool(opts.Jacobi)
			f.Int(opts.LineSearch.MaxIters)
		},
		Build: func(node *cluster.Node, local *dist.Local) dist.Stepper {
			if node.Size() != 1 {
				panic(fmt.Sprintf("baselines: Newton runs on one rank, not %d", node.Size()))
			}
			opts := opts
			opts.CG.Work = &cg.Workspace{} // reused every epoch
			x := make([]float64, local.Problem.Dim())
			return stepper{replicated{x}, func(int) {
				n := newton.Solve(local.Problem, x, opts).Iters
				if iters != nil {
					*iters += n
				}
			}}
		},
	}
}
