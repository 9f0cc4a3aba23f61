// Package baselines implements the distributed optimizers the paper
// compares Newton-ADMM against: GIANT (Wang et al.), InexactDANE and AIDE
// (Reddi et al., with an SVRG inner solver), and synchronous mini-batch
// SGD. Each follows the communication pattern the paper attributes to it —
// GIANT's three collectives per iteration, DANE/AIDE's two, and SGD's one
// per mini-batch — so the virtual-clock comparisons reproduce the paper's
// cost structure. Every solver here is a dist.Stepper; the epoch loop,
// trace, stopping and checkpointing are dist.Run's.
package baselines

import (
	"fmt"
	"math/rand"
	"slices"

	"newtonadmm/internal/dist"
)

// Result is the common output shape of the baseline solvers.
type Result = dist.Result

// stepper is a baseline solver on one rank: its recoverable state and the
// closure that advances it one outer iteration.
type stepper struct {
	replicated
	step func(epoch int)
}

func (s stepper) Step(epoch int) error { s.step(epoch); return nil }

// replicated is recoverable state that every rank holds identically:
// equal-length vectors, the first of which is the iterate. Concatenated
// they are the shared checkpoint section; no baseline has a private one.
type replicated [][]float64

func (r replicated) Iterate() []float64 { return r[0] }

func (r replicated) State() (shared, rank []float64) { return slices.Concat(r...), nil }

func (r replicated) Restore(shared, _ []float64) error {
	dim := len(r[0])
	if len(shared) != dim*len(r) {
		return fmt.Errorf("baselines: checkpoint shape mismatch (shared %d, want %d)", len(shared), dim*len(r))
	}
	for i, v := range r {
		copy(v, shared[i*dim:])
	}
	return nil
}

// epochRNG derives one rank's random stream for one epoch from (seed,
// rank, epoch) alone, so a resumed run draws exactly the samples an
// uninterrupted one would and the stochastic solvers' recoverable state
// stays plain floats.
func epochRNG(seed int64, rank, epoch int) *rand.Rand {
	return rand.New(rand.NewSource(seed + 31337*int64(rank) + 1000003*int64(epoch)))
}
