package baselines

import (
	"newtonadmm/internal/ckpt"
	"newtonadmm/internal/cluster"
	"newtonadmm/internal/dist"
	"newtonadmm/internal/linalg"
)

// SGDOptions configures synchronous distributed mini-batch SGD, the
// first-order baseline of the paper's Figure 4.
type SGDOptions struct {
	// BatchSize is the per-rank mini-batch size (paper: 128).
	BatchSize int
	// Step is the learning rate applied to the mean-form gradient
	// (the paper sweeps 1e-8..1e8 and reports the best).
	Step float64
	// Momentum is the heavy-ball coefficient in [0,1); 0 is plain SGD
	// (the paper's related work covers SGD "with/without momentum").
	Momentum float64
	// Seed makes shuffling reproducible.
	Seed int64
}

func (o SGDOptions) withDefaults() SGDOptions {
	if o.BatchSize <= 0 {
		o.BatchSize = 128
	}
	if o.Step <= 0 {
		o.Step = 0.1
	}
	return o
}

// SyncSGD is synchronous data-parallel mini-batch SGD: every step,
// each rank computes a mini-batch gradient on its shard and the ranks
// allreduce-average before updating identically — one communication round
// per mini-batch, i.e. ~n_i/BatchSize rounds per epoch versus
// Newton-ADMM's single round, which is the communication gap the paper's
// Figure 4 and the "amplified by slower interconnects" remark rest on.
// An epoch is one full pass over the data (100 by default). Its
// recoverable state is [x ; velocity]: each epoch's shuffle comes from
// epochRNG.
func SyncSGD(opts SGDOptions) dist.Solver {
	opts = opts.withDefaults()
	return dist.Solver{
		Name:          "sync-sgd",
		DefaultEpochs: 100,
		ShardL2:       true,
		Fingerprint: func(f *ckpt.Fingerprinter) {
			f.Int(opts.BatchSize)
			f.Float(opts.Step)
			f.Float(opts.Momentum)
			f.Uint64(uint64(opts.Seed))
		},
		Build: func(node *cluster.Node, local *dist.Local) dist.Stepper {
			dim := local.Problem.Dim()
			x := make([]float64, dim)
			g := make([]float64, dim)
			vel := make([]float64, dim) // heavy-ball velocity
			nLocal := local.Problem.N()
			batch := min(opts.BatchSize, nLocal)
			// Every rank must take the same number of steps per epoch
			// (collectives are synchronous): agree on the max.
			agree := []float64{float64((nLocal + batch - 1) / batch)}
			node.AllReduceMax(agree)
			stepsPerEpoch := int(agree[0])
			idx := make([]int, 0, batch)

			return stepper{replicated{x, vel}, func(epoch int) {
				perm := epochRNG(opts.Seed, node.Rank(), epoch).Perm(nLocal) // reshuffled each epoch
				for s := 0; s < stepsPerEpoch; s++ {
					lo := (s * batch) % nLocal
					idx = idx[:0]
					for b := 0; b < batch; b++ {
						idx = append(idx, perm[(lo+b)%nLocal])
					}
					sub := local.Problem.Subproblem(idx)
					sub.L2 = 0
					sub.Gradient(x, g)
					// Scale the shard's mini-batch estimate to the full
					// sum-form gradient, add the exact regularizer, and
					// allreduce — one round per mini-batch.
					linalg.Scal(float64(nLocal)/float64(len(idx)), g)
					node.AllReduceSum(g)
					linalg.Axpy(local.Lambda, x, g)
					// Mean-form heavy-ball step for size-independent
					// learning rates; Momentum = 0 is plain SGD.
					linalg.Waxpby(opts.Momentum, vel, -opts.Step/float64(local.N), g, vel)
					linalg.Add(x, vel)
				}
			}}
		},
	}
}
