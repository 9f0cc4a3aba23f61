package baselines

import (
	"math"

	"newtonadmm/internal/cg"
	"newtonadmm/internal/ckpt"
	"newtonadmm/internal/cluster"
	"newtonadmm/internal/dist"
	"newtonadmm/internal/linalg"
	"newtonadmm/internal/loss"
)

// DiSCOOptions configures the DiSCO solver.
type DiSCOOptions struct {
	// PCGIters caps the inner distributed PCG iterations; <=0 is 20.
	PCGIters int
	// PCGTol is the relative residual tolerance of the inner solve;
	// <=0 is 1e-4.
	PCGTol float64
	// LocalCGIters caps the local CG iterations used to apply the
	// preconditioner; <=0 is 10.
	LocalCGIters int
}

func (o DiSCOOptions) withDefaults() DiSCOOptions {
	if o.PCGIters <= 0 {
		o.PCGIters = 20
	}
	if o.PCGTol <= 0 {
		o.PCGTol = 1e-4
	}
	if o.LocalCGIters <= 0 {
		o.LocalCGIters = 10
	}
	return o
}

// DiSCO is DiSCO (Zhang & Lin, ICML 2015): a distributed inexact damped
// Newton method for self-concordant losses. The Newton system on
// the *global* Hessian is solved by preconditioned conjugate gradient in
// which every iteration allreduces one global Hessian-vector product; the
// preconditioner is the master's local Hessian plus mu*I, mu = lambda,
// applied approximately with a short local CG. The resulting communication
// pattern — one allreduce per PCG iteration, so PCGIters+2 rounds per
// Newton step — is exactly the per-iteration cost the paper contrasts
// with Newton-ADMM's single round. Its recoverable state is the iterate x
// (the PCG state is rebuilt every Newton step); a run defaults to 50
// epochs.
func DiSCO(opts DiSCOOptions) dist.Solver {
	opts = opts.withDefaults()
	return dist.Solver{
		Name:          "disco",
		DefaultEpochs: 50,
		ShardL2:       true,
		Fingerprint: func(f *ckpt.Fingerprinter) {
			f.Int(opts.PCGIters)
			f.Float(opts.PCGTol)
			f.Float(0) // the damping mu, once an option, is lambda
			f.Int(opts.LocalCGIters)
		},
		Build: func(node *cluster.Node, local *dist.Local) dist.Stepper {
			dim := local.Problem.Dim()
			x := make([]float64, dim)
			g := make([]float64, dim)
			p := make([]float64, dim)
			hp := make([]float64, dim)
			sc := &pcgScratch{r: make([]float64, dim), z: make([]float64, dim), s: make([]float64, dim),
				hs: make([]float64, dim), prec: dampedOp{mu: local.Lambda}}
			return stepper{replicated{x}, func(int) {
				// Round 1: global gradient (and value, unused here).
				local.GlobalGradient(node, x, g)

				h := local.Problem.HessianAt(x)
				solveDistributedPCG(node, h, g, p, opts, sc)

				// Damped Newton step: delta = sqrt(p^T H p) through one more
				// allreduce, step 1/(1+delta).
				h.Apply(p, hp)
				node.AllReduceSum(hp)
				delta := math.Sqrt(math.Max(0, linalg.Dot(p, hp)))
				step := 1 / (1 + delta)
				linalg.Axpy(-step, p, x)
			}}
		},
	}
}

// pcgScratch is solveDistributedPCG's vectors, preconditioner and local
// CG workspace, built once per rank so a Newton step allocates nothing.
type pcgScratch struct {
	r, z, s, hs []float64
	prec        dampedOp
	work        cg.Workspace
}

// solveDistributedPCG solves (sum_i H_i) p = g with PCG. The PCG state
// (p, r, s) is replicated on every rank and advanced identically; each
// iteration costs two communication rounds, exactly DiSCO's pattern:
// an allreduce of the local Hessian-vector products, and a broadcast of
// the master's preconditioned residual (only rank 0 holds the
// preconditioner — its local Hessian plus mu*I, applied with a short
// local CG). p is overwritten.
func solveDistributedPCG(node *cluster.Node, h loss.HessianOperator, g, p []float64, opts DiSCOOptions, sc *pcgScratch) {
	linalg.Zero(p)
	r, z, s, hs := sc.r, sc.z, sc.s, sc.hs
	copy(r, g) // residual of H p = g at p = 0

	// Rank 0's preconditioner; other ranks only participate in the
	// broadcast so the replicated state stays bitwise identical. With
	// mu > 0 the damped operator never trips CG's curvature guard, and
	// the smallest tolerance stops CG only at a zero residual, so the
	// application is LocalCGIters iterations of plain CG.
	sc.prec.h = h
	local := cg.Options{MaxIters: opts.LocalCGIters, RelTol: math.SmallestNonzeroFloat64, Work: &sc.work}
	applyPrec := func(rhs, out []float64) {
		if node.Rank() == 0 {
			linalg.Zero(out)
			cg.Solve(&sc.prec, nil, rhs, out, local)
		}
		node.Bcast(0, out)
	}

	gNorm := linalg.Nrm2(g)
	if gNorm == 0 {
		// Keep the collective schedule aligned across ranks: no rank
		// enters the loop because g is identical everywhere.
		return
	}
	applyPrec(r, z)
	linalg.Copy(s, z)
	rz := linalg.Dot(r, z)
	for it := 0; it < opts.PCGIters; it++ {
		if linalg.Nrm2(r)/gNorm <= opts.PCGTol {
			return
		}
		// Round 1: global Hessian-vector product.
		h.Apply(s, hs)
		node.AllReduceSum(hs)
		curv := linalg.Dot(s, hs)
		if curv <= 0 {
			return
		}
		alpha := rz / curv
		linalg.Axpy(alpha, s, p)
		linalg.Axpy(-alpha, hs, r)
		// Round 2: master preconditions, broadcasts.
		applyPrec(r, z)
		rzNew := linalg.Dot(r, z)
		beta := rzNew / rz
		linalg.Waxpby(1, z, beta, s, s)
		rz = rzNew
	}
}

// dampedOp applies h + mu*I.
type dampedOp struct {
	h  loss.HessianOperator
	mu float64
}

func (d *dampedOp) Apply(v, hv []float64) {
	d.h.Apply(v, hv)
	linalg.Axpy(d.mu, v, hv)
}
