// Package core implements the paper's primary contribution: Newton-ADMM
// (Algorithm 2), the distributed second-order solver that runs inexact
// Newton-CG (Algorithm 1) on each rank's penalized local subproblem
// (eq. 6a) and reconciles the ranks with a single gather+scatter round per
// iteration — the consensus z-update of eq. (7), the multiplier update of
// eq. (6c), and per-rank Spectral Penalty Selection.
package core

import (
	"fmt"
	"math"
	"slices"

	"newtonadmm/internal/admm"
	"newtonadmm/internal/cg"
	"newtonadmm/internal/ckpt"
	"newtonadmm/internal/cluster"
	"newtonadmm/internal/datasets"
	"newtonadmm/internal/dist"
	"newtonadmm/internal/linalg"
	"newtonadmm/internal/linesearch"
	"newtonadmm/internal/loss"
	"newtonadmm/internal/newton"
)

// Options configures Newton-ADMM.
type Options struct {
	// Epochs is the number of ADMM iterations; <=0 selects 100
	// (the paper's setting).
	Epochs int
	// Lambda is the global L2 regularization strength.
	Lambda float64
	// Rho0 is the initial per-rank penalty; <=0 selects 1.
	Rho0 float64
	// Penalty selects the adaptation policy: "spectral" (default),
	// "residual-balancing", or "fixed".
	Penalty string
	// LocalNewtonIters caps the inner Newton iterations per ADMM
	// iteration (Algorithm 1 run on each rank); <=0 selects 1, which
	// makes one ADMM epoch's compute comparable to one GIANT epoch
	// (one gradient, one CG solve, one line search) as in the paper's
	// epoch-time comparisons.
	LocalNewtonIters int
	// CG configures the inner linear solver (paper: 10 iterations at
	// tolerance 1e-4 for the Figure 1 study).
	CG cg.Options
	// Jacobi enables diagonal preconditioning of the local CG solves
	// (optional optimization beyond the paper).
	Jacobi bool
	// LineSearch configures the per-rank Armijo backtracking
	// (paper: at most 10 iterations).
	LineSearch linesearch.Options
	// TargetObjective stops the run at the first epoch whose global
	// objective reaches it; 0 is off (dist.RunOptions has the run
	// control Solve does not expose).
	TargetObjective float64
}

func (o Options) withDefaults() Options {
	if o.Epochs <= 0 {
		o.Epochs = 100
	}
	if o.Rho0 <= 0 {
		o.Rho0 = 1
	}
	if o.Penalty == "" {
		o.Penalty = "spectral"
	}
	if o.LocalNewtonIters <= 0 {
		o.LocalNewtonIters = 1
	}
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

// Result reports a Newton-ADMM run.
type Result struct {
	// Z is the final consensus weight vector, class-major as a model
	// holds it (the layout Softmax.Accuracy reads).
	Z []float64
	// Trace is the convergence history (recorded on rank 0).
	Trace dist.Trace
	// Stats are the per-rank timing summaries.
	Stats []cluster.NodeStats
	// PrimalResidual and DualResidual are the final global residuals,
	// sqrt(sum_i ||x_i - z||^2) and sqrt(sum_i rho_i^2) ||z - zPrev||.
	PrimalResidual, DualResidual float64
	// FinalRhos are the per-rank penalties at termination.
	FinalRhos []float64
	// FailedEpoch is the outer iteration in flight when a failed run went
	// down (0 when the run succeeded or failed before the first epoch).
	FailedEpoch int
}

// Solve trains the softmax classifier of ds on a simulated cluster. On
// failure it returns the partial result accumulated so far (trace,
// failed-at epoch) together with the error, so callers can flush the
// convergence history instead of discarding the run.
func Solve(clusterCfg cluster.Config, ds *datasets.Dataset, opts Options) (*Result, error) {
	res := &Result{FinalRhos: make([]float64, max(clusterCfg.Ranks, 1))}
	run, err := dist.Run(clusterCfg, ds, dist.RunOptions{
		Epochs: opts.Epochs, Lambda: opts.Lambda, TargetObjective: opts.TargetObjective,
	}, Solver(opts, res))
	if run == nil {
		return nil, err
	}
	res.Z, res.Trace, res.Stats, res.FailedEpoch = run.X, run.Trace, run.Stats, run.FailedEpoch
	if err != nil {
		res.FinalRhos = nil
	}
	return res, err
}

// Solver describes Newton-ADMM to the epoch driver. out, when non-nil,
// receives the final residuals and per-rank penalties of a run that
// finishes cleanly (its FinalRhos must hold one slot per rank).
func Solver(opts Options, out *Result) dist.Solver {
	opts = opts.withDefaults()
	return dist.Solver{
		Name:          "newton-admm",
		DefaultEpochs: opts.Epochs,
		Fingerprint: func(f *ckpt.Fingerprinter) {
			f.String(opts.Penalty)
			f.Float(opts.Rho0)
			f.Int(opts.LocalNewtonIters)
			f.Int(opts.CG.MaxIters)
			f.Float(opts.CG.RelTol)
			f.Bool(opts.Jacobi)
			// The line search's Beta, Shrink and Initial, once options,
			// are constants: their unset 0 keeps older checkpoints valid.
			f.Float(0)
			f.Float(0)
			f.Int(opts.LineSearch.MaxIters)
			f.Float(0)
		},
		Build: func(node *cluster.Node, local *dist.Local) dist.Stepper {
			dim := local.Problem.Dim()
			s := &stepper{
				node: node, local: local, out: out,
				policy:  admm.NewPolicy(opts.Penalty, opts.Rho0),
				z:       make([]float64, dim),
				zPrev:   make([]float64, dim),
				y:       make([]float64, dim),
				yPrev:   make([]float64, dim),
				x:       make([]float64, dim),
				v:       make([]float64, dim),
				payload: make([]float64, dim+1),
				newton: newton.Options{
					MaxIters:   opts.LocalNewtonIters,
					GradTol:    1e-10,
					CG:         opts.CG,
					Jacobi:     opts.Jacobi,
					LineSearch: opts.LineSearch,
				},
			}
			// All epochs of this rank share one CG workspace (zero
			// steady-state allocation in the inner solves).
			s.newton.CG.Work = &cg.Workspace{}
			return s
		},
	}
}

// stepper is one rank's Newton-ADMM state. The recoverable part is the
// shared section [z ; zPrev] and the private [x ; y ; penalty-policy
// state]; the rest is scratch.
type stepper struct {
	node   *cluster.Node
	local  *dist.Local
	out    *Result
	policy admm.PenaltyPolicy
	newton newton.Options

	z, zPrev []float64 // consensus iterate (step 1 of Algorithm 2) and its predecessor
	y, yPrev []float64 // multipliers, step 2
	x        []float64 // local iterate
	v        []float64 // subproblem anchor z + y/rho
	payload  []float64 // [rho*x - y ; rho]
}

func (s *stepper) Iterate() []float64 { return s.z }

func (s *stepper) State() (shared, rank []float64) {
	return slices.Concat(s.z, s.zPrev), slices.Concat(s.x, s.y, s.policy.State())
}

func (s *stepper) Restore(shared, rank []float64) error {
	dim := len(s.z)
	if len(shared) != 2*dim || len(rank) < 2*dim {
		return fmt.Errorf("core: checkpoint shape mismatch (shared %d, rank %d, dim %d)", len(shared), len(rank), dim)
	}
	copy(s.z, shared[:dim])
	copy(s.zPrev, shared[dim:])
	copy(s.x, rank[:dim])
	copy(s.y, rank[dim:2*dim])
	if !s.policy.SetState(rank[2*dim:]) {
		return fmt.Errorf("core: checkpoint penalty state does not match policy %q", s.policy.Name())
	}
	return nil
}

// Step is one iteration of Algorithm 2.
func (s *stepper) Step(k int) error {
	node, dim := s.node, len(s.z)
	x, y, z, zPrev := s.x, s.y, s.z, s.zPrev
	rho := s.policy.Rho()

	// Local x-update (eq. 6a): inexact Newton on the augmented
	// subproblem, warm-started from the previous local iterate
	// ("Perform Algorithm 1 with x_i^k, y_i^k, z^k").
	admm.Anchor(s.v, z, y, rho)
	aug := loss.NewAugmented(s.local.Problem, rho, s.v)
	newton.Solve(aug, x, s.newton)

	// The paper's single communication round: gather each rank's
	// z-update contribution (rho_i x_i - y_i, rho_i) at the master...
	for j := 0; j < dim; j++ {
		s.payload[j] = float64(rho*x[j]) - y[j]
	}
	s.payload[dim] = rho
	parts := node.Gather(0, s.payload)

	// ...master evaluates eq. (7)...
	copy(zPrev, z)
	if node.Rank() == 0 {
		linalg.Zero(z)
		var rhoSum float64
		for _, part := range parts {
			linalg.Axpy(1, part[:dim], z)
			rhoSum += part[dim]
		}
		scale := s.local.Lambda + rhoSum
		if scale <= 0 {
			return fmt.Errorf("core: nonpositive z normalizer %v", scale)
		}
		linalg.Scal(1/scale, z)
	}

	// ...and scatters the new consensus back.
	node.Bcast(0, z)

	// Local updates: multipliers (eq. 6c) and the spectral penalty
	// (step 8 of Algorithm 2) need no further communication.
	copy(s.yPrev, y)
	admm.UpdateY(y, z, x, rho)
	s.policy.Update(k, admm.IterState{
		X1: x, Z0: zPrev, Z1: z, Y0: s.yPrev, Y1: y,
		Primal: admm.PrimalResidual(x, z),
		Dual:   admm.DualResidual(z, zPrev, rho),
	})
	return nil
}

// Finish reports the final global residuals and this rank's penalty. One
// allreduce, with the clock frozen (diagnostics), sums the ranks'
// ||x_i - z||^2 and rho_i^2: r = sqrt(sum_i ||x_i - z||^2) and
// s = sqrt(sum_i rho_i^2) ||z - zPrev||.
func (s *stepper) Finish() {
	if s.out == nil {
		return
	}
	rho := s.policy.Rho()
	s.node.Frozen(func() {
		r := admm.PrimalResidual(s.x, s.z)
		sq := []float64{float64(r * r), float64(rho * rho)}
		s.node.AllReduceSum(sq)
		if s.node.Rank() == 0 {
			s.out.PrimalResidual = math.Sqrt(sq[0])
			s.out.DualResidual = math.Sqrt(sq[1]) * linalg.Dist2(s.z, s.zPrev)
		}
	})
	s.out.FinalRhos[s.node.Rank()] = rho
}
