package baselines

import (
	"math"
	"math/rand"

	"newtonadmm/internal/ckpt"
	"newtonadmm/internal/cluster"
	"newtonadmm/internal/dist"
	"newtonadmm/internal/linalg"
)

// DANEOptions configures InexactDANE and (via AIDE) its accelerated
// wrapper.
type DANEOptions struct {
	// Eta is DANE's gradient weight (paper uses 1.0). DANE's proximal
	// coefficient mu is the paper's 0.
	Eta float64
	// SVRG configures the inexact subproblem solver.
	SVRG SVRGOptions
	// Seed makes the stochastic inner solver reproducible.
	Seed int64
}

func (o DANEOptions) withDefaults() DANEOptions {
	if o.Eta == 0 {
		o.Eta = 1
	}
	return o
}

// fingerprint feeds 0 where the proximal mu and SVRG's update-frequency
// factor were once options: their unset value, so older checkpoints
// still load.
func (o DANEOptions) fingerprint(f *ckpt.Fingerprinter) {
	f.Float(o.Eta)
	f.Float(0) // mu
	f.Int(o.SVRG.Snapshots)
	f.Int(o.SVRG.StepsPerSnapshot)
	f.Float(0) // update-frequency factor
	f.Int(o.SVRG.BatchSize)
	f.Float(o.SVRG.Step)
	f.Uint64(uint64(o.Seed))
}

// daneIteration performs one InexactDANE step from x (identical on all
// ranks): allreduce the global gradient, solve the local corrected
// subproblem with SVRG, allreduce-average the solutions. extraC/extraA add
// the AIDE prox linearization (zero for plain DANE). Two communication
// rounds per iteration.
func daneIteration(node *cluster.Node, local *dist.Local, x []float64, opts DANEOptions, rng *rand.Rand, extraC []float64, extraA float64) {
	dim := len(x)
	g := make([]float64, dim)
	gLocal := make([]float64, dim)

	// Round 1: global gradient G = sum_i grad f_i(x).
	local.Problem.Gradient(x, gLocal)
	copy(g, gLocal)
	if extraA != 0 || extraC != nil {
		// include the AIDE prox term's gradient in the global view
		for j := 0; j < dim; j++ {
			g[j] += float64(extraA*x[j]) + extraC[j]
		}
		for j := 0; j < dim; j++ {
			gLocal[j] += float64(extraA*x[j]) + extraC[j]
		}
	}
	node.AllReduceSum(g)

	// Local subproblem (Reddi et al., sum form):
	//   min_x f_i(x) - <grad f_i(x0) - eta G / N, x> + mu/2 ||x - x0||^2
	// with mu = 0, encoded for SVRGSolve as phi(x) = f(x) + <c,x> +
	// a/2||x||^2 with c = -(grad f_i(x0) - eta G / N) + extraC and the
	// AIDE quadratic in a.
	c := make([]float64, dim)
	invN := 1 / float64(node.Size())
	for j := 0; j < dim; j++ {
		c[j] = -(gLocal[j] - float64(opts.Eta*g[j]*invN))
	}
	if extraC != nil {
		linalg.Add(c, extraC)
	}
	SVRGSolve(local.Problem, c, extraA, x, opts.SVRG, rng)

	// Round 2: average the local solutions.
	node.AllReduceSum(x)
	linalg.Scal(invN, x)
}

// InexactDANE is the InexactDANE solver of Reddi et al.: DANE with each
// node's subproblem solved approximately by SVRG. The SVRG sweep makes
// every epoch orders of magnitude more expensive than a Newton-ADMM
// epoch, which is exactly the behaviour the paper's Figure 1 reports (and
// why a run defaults to 10 epochs). Its recoverable state is the iterate
// x: each epoch's SVRG samples come from epochRNG.
func InexactDANE(opts DANEOptions) dist.Solver {
	opts = opts.withDefaults()
	return dist.Solver{
		Name:          "inexact-dane",
		DefaultEpochs: 10,
		ShardL2:       true,
		Fingerprint:   opts.fingerprint,
		Build: func(node *cluster.Node, local *dist.Local) dist.Stepper {
			x := make([]float64, local.Problem.Dim())
			return stepper{replicated{x}, func(k int) {
				daneIteration(node, local, x, opts, epochRNG(opts.Seed, node.Rank(), k), nil, 0)
			}}
		},
	}
}

// AIDEOptions configures the accelerated InexactDANE wrapper.
type AIDEOptions struct {
	// DANE configures the inner solver.
	DANE DANEOptions
	// Tau is the catalyst proximal weight (the paper sweeps 1e-4..1e4).
	Tau float64
}

// AIDE is AIDE (Reddi et al.): catalyst-style acceleration around
// InexactDANE. Each outer step solves the tau-augmented problem
// F(x) + tau/2 ||x - v||^2 with one InexactDANE iteration and then
// extrapolates v with the Nesterov coefficient derived from
// q = lambda / (lambda + tau). Its recoverable state is [x ; v], the
// iterate and the extrapolated prox center.
func AIDE(opts AIDEOptions) dist.Solver {
	opts.DANE = opts.DANE.withDefaults()
	if opts.Tau <= 0 {
		opts.Tau = 1
	}
	return dist.Solver{
		Name:          "aide",
		DefaultEpochs: 10,
		ShardL2:       true,
		Fingerprint: func(f *ckpt.Fingerprinter) {
			opts.DANE.fingerprint(f)
			f.Float(opts.Tau)
		},
		Build: func(node *cluster.Node, local *dist.Local) dist.Stepper {
			dim := local.Problem.Dim()
			x := make([]float64, dim)
			xPrev := make([]float64, dim)
			v := make([]float64, dim)
			extraC := make([]float64, dim)
			q := local.Lambda / (local.Lambda + opts.Tau)
			zeta := (1 - math.Sqrt(q)) / (1 + math.Sqrt(q))

			// Per-rank share of the tau prox: sum over ranks must equal
			// tau/2 ||x - v||^2.
			tauShare := opts.Tau / float64(node.Size())

			return stepper{replicated{x, v}, func(k int) {
				// tau/2N ||x - v||^2 = tauShare/2 ||x||^2 - <tauShare v, x> + const
				for j := 0; j < dim; j++ {
					extraC[j] = -tauShare * v[j]
				}
				copy(xPrev, x)
				daneIteration(node, local, x, opts.DANE, epochRNG(opts.DANE.Seed, node.Rank(), k), extraC, tauShare)
				// Nesterov extrapolation of the prox center.
				for j := 0; j < dim; j++ {
					v[j] = x[j] + float64(zeta*(x[j]-xPrev[j]))
				}
			}}
		},
	}
}
