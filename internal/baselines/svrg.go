package baselines

import (
	"math/rand"

	"newtonadmm/internal/linalg"
	"newtonadmm/internal/loss"
)

// SVRGOptions configures the stochastic variance-reduced gradient inner
// solver used by InexactDANE and AIDE (paper: "SVRG iterations to 100 and
// updating frequency as 2n").
type SVRGOptions struct {
	// Snapshots is the number of outer (full-gradient) rounds; <=0 is 2.
	Snapshots int
	// StepsPerSnapshot is the number of stochastic steps between full
	// gradients; <=0 selects UpdateFreqFactor * n / BatchSize.
	StepsPerSnapshot int
	// UpdateFreqFactor is the paper's "2n" factor; <=0 is 2.
	UpdateFreqFactor float64
	// BatchSize is the mini-batch size per stochastic step; <=0 is 16.
	BatchSize int
	// Step is the SVRG step size (the paper sweeps 1e-4..1e4).
	Step float64
}

func (o SVRGOptions) withDefaults(n int) SVRGOptions {
	if o.Snapshots <= 0 {
		o.Snapshots = 2
	}
	if o.UpdateFreqFactor <= 0 {
		o.UpdateFreqFactor = 2
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 16
	}
	if o.BatchSize > n {
		o.BatchSize = n
	}
	if o.StepsPerSnapshot <= 0 {
		o.StepsPerSnapshot = int(o.UpdateFreqFactor*float64(n))/o.BatchSize + 1
	}
	if o.Step <= 0 {
		o.Step = 1e-3
	}
	return o
}

// SVRGSolve approximately minimizes the composite local subproblem
//
//	phi(x) = f(x) + <c, x> + (a/2)||x||^2 + (mu/2)||x - x0||^2
//
// by SVRG, starting from x (updated in place). f is the rank's softmax
// shard; the linear/quadratic terms encode the DANE or AIDE corrections.
// The stochastic gradient uses mini-batch variance reduction:
//
//	g = (n/b) (gB(x) - gB(xSnap)) + grad f(xSnap) + c + a x + mu (x - x0)
//
// Steps are scaled by 1/n so Step is comparable across shard sizes.
func SVRGSolve(f *loss.Softmax, c []float64, a, mu float64, x0, x []float64, opts SVRGOptions, rng *rand.Rand) {
	n := f.N()
	if n == 0 {
		return
	}
	opts = opts.withDefaults(n)
	// Handle f's own L2 term exactly in the deterministic part: fold it
	// into the quadratic coefficient and evaluate f as pure loss below.
	savedL2 := f.L2
	f.L2 = 0
	defer func() { f.L2 = savedL2 }()
	a += savedL2
	dim := f.Dim()
	snapGrad := make([]float64, dim)
	xSnap := make([]float64, dim)
	gB := make([]float64, dim)
	gBSnap := make([]float64, dim)
	step := opts.Step / float64(n)
	idx := make([]int, opts.BatchSize)

	for s := 0; s < opts.Snapshots; s++ {
		copy(xSnap, x)
		f.Gradient(xSnap, snapGrad)
		for t := 0; t < opts.StepsPerSnapshot; t++ {
			for i := range idx {
				idx[i] = rng.Intn(n)
			}
			batch := f.Subproblem(idx)
			batch.Gradient(x, gB)
			batch.Gradient(xSnap, gBSnap)
			scale := float64(n) / float64(opts.BatchSize)
			for j := 0; j < dim; j++ {
				g := float64(scale*(gB[j]-gBSnap[j])) + snapGrad[j] +
					c[j] + float64(a*x[j]) + float64(mu*(x[j]-x0[j]))
				x[j] -= float64(step * g)
			}
			if !linalg.AllFinite(x) {
				// Divergence guard: step too large; fall back to the
				// snapshot and stop (the harness sweeps step sizes).
				copy(x, xSnap)
				return
			}
		}
	}
}
