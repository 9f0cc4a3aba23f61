package baselines

import (
	"time"

	"newtonadmm/internal/cg"
	"newtonadmm/internal/ckpt"
	"newtonadmm/internal/cluster"
	"newtonadmm/internal/datasets"
	"newtonadmm/internal/dist"
	"newtonadmm/internal/linalg"
	"newtonadmm/internal/linesearch"
	"newtonadmm/internal/loss"
)

// GiantOptions configures the GIANT solver.
type GiantOptions struct {
	// Epochs is the number of outer iterations; <=0 selects 100.
	Epochs int
	// Lambda is the global L2 regularization strength.
	Lambda float64
	// CG configures the local Newton-direction solves (paper setting for
	// the comparison: 10 iterations at 1e-4).
	CG cg.Options
	// LineSearch sets the synchronized candidate set S = {1, 1/2, ...,
	// 2^-(MaxIters-1)} every worker must evaluate in full (paper: 10).
	LineSearch linesearch.Options
	// The remaining fields are the run control of dist.RunOptions, field
	// for field; the semantics are documented there.
	EvalEvery        int
	EvalTestAccuracy bool
	TargetObjective  float64
	CheckpointDir    string
	CheckpointEvery  int
	Resume           bool
	MaxRestarts      int
	RestartBackoff   time.Duration
}

func (o GiantOptions) withDefaults() GiantOptions {
	if o.CG.MaxIters <= 0 {
		o.CG.MaxIters = 10
	}
	if o.CG.RelTol <= 0 {
		o.CG.RelTol = 1e-4
	}
	if o.LineSearch.MaxIters <= 0 {
		o.LineSearch.MaxIters = 10
	}
	return o
}

// SolveGIANT runs the Globally Improved Approximate Newton method: each
// iteration allreduces the exact global gradient, has every rank solve its
// *local* Hessian system against that gradient (rescaled by n/n_i so the
// local Hessian estimates the global one), averages the resulting
// directions, and picks one global step size with the synchronized
// candidate-set line search — three communication rounds per iteration
// versus Newton-ADMM's one (paper §3).
func SolveGIANT(clusterCfg cluster.Config, ds *datasets.Dataset, opts GiantOptions) (*Result, error) {
	return dist.Run(clusterCfg, ds, dist.RunOptions{
		Epochs: opts.Epochs, Lambda: opts.Lambda,
		EvalEvery: opts.EvalEvery, EvalTestAccuracy: opts.EvalTestAccuracy,
		TargetObjective: opts.TargetObjective,
		CheckpointDir:   opts.CheckpointDir, CheckpointEvery: opts.CheckpointEvery,
		Resume: opts.Resume, MaxRestarts: opts.MaxRestarts, RestartBackoff: opts.RestartBackoff,
	}, GIANT(opts))
}

// GIANT describes the solver to the epoch driver. Its full recoverable
// state is the iterate x, identical on all ranks: CG and line-search
// state is pure scratch.
func GIANT(opts GiantOptions) dist.Solver {
	opts = opts.withDefaults()
	return dist.Solver{
		Name:          "giant",
		DefaultEpochs: 100,
		ShardL2:       true,
		Fingerprint: func(f *ckpt.Fingerprinter) {
			f.Int(opts.CG.MaxIters)
			f.Float(opts.CG.RelTol)
			f.Float(opts.LineSearch.Beta)
			f.Float(opts.LineSearch.Shrink)
			f.Int(opts.LineSearch.MaxIters)
			f.Float(opts.LineSearch.Initial)
		},
		Build: func(node *cluster.Node, local *dist.Local) dist.Stepper {
			opts := opts
			opts.CG.Work = &cg.Workspace{} // per-rank scratch, reused every epoch
			dim := local.Problem.Dim()
			x := make([]float64, dim)
			g := make([]float64, dim)
			p := make([]float64, dim)
			scratch := make([]float64, dim)
			scale := float64(local.N) / float64(local.Problem.N())
			scaled := &loss.Scaled{Base: local.Problem, Factor: scale}
			return stepper{replicated{x}, func(int) {
				// Round 1: exact global gradient and objective value.
				f0 := local.GlobalGradient(node, x, g)

				// Local CG on the rescaled local Hessian (no communication).
				h := scaled.HessianAt(x)
				cg.NewtonDirection(h, g, p, opts.CG)

				// Round 2: average the local directions.
				node.AllReduceSum(p)
				linalg.Scal(1/float64(node.Size()), p)

				// Round 3: synchronized candidate-set line search. Every
				// worker evaluates its local objective on the full set S
				// (the redundant work the paper contrasts with Newton-ADMM's
				// local early-terminating search).
				localVal := linesearch.Objective(local.Problem.Value, x, p, scratch)
				alphas, values := linesearch.EvalCandidates(localVal, opts.LineSearch)
				node.AllReduceSum(values)
				slope := linalg.Dot(p, g)
				alpha, _ := linesearch.PickArmijo(alphas, values, f0, slope, opts.LineSearch.Beta)

				linalg.Axpy(alpha, p, x)
			}}
		},
	}
}
