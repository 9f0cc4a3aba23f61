package harness

import (
	"fmt"
	"io"
	"math"
	"time"

	"newtonadmm/internal/baselines"
	"newtonadmm/internal/cg"
	"newtonadmm/internal/cluster"
	"newtonadmm/internal/core"
	"newtonadmm/internal/datasets"
	"newtonadmm/internal/device"
	"newtonadmm/internal/loss"
	"newtonadmm/internal/newton"
)

func init() {
	register(Experiment{
		ID:    "ablation-penalty",
		Title: "Ablation: penalty policy (SPS vs residual balancing vs fixed rho)",
		Paper: "§2.2: residual balancing 'is still not effective in practice'; " +
			"SPS 'yields significant improvement in the efficiency of ADMM'",
		Run: runAblationPenalty,
	})
	register(Experiment{
		ID:    "ablation-network",
		Title: "Ablation: interconnect sensitivity (Newton-ADMM vs GIANT vs SGD)",
		Paper: "§3: 'the difference in communication overhead ... is not " +
			"crippling [on 100Gbps InfiniBand]. However, in environments " +
			"with low bandwidth and high latency, this can lead to " +
			"significant performance degradation'",
		Run: runAblationNetwork,
	})
	register(Experiment{
		ID:    "ablation-inexact",
		Title: "Ablation: CG inexactness (paper §2.1 claim)",
		Paper: "§2.1: a mild CG tolerance 'yields good performance, " +
			"comparable to the exact update'",
		Run: runAblationInexact,
	})
}

// runAblationPenalty compares the three penalty policies on the MNIST
// analogue with 4 ranks.
func runAblationPenalty(cfg RunConfig, w io.Writer) error {
	cfg = cfg.withDefaults()
	const lambda = 1e-5
	const ranks = 4
	epochs := cfg.epochs(60)
	ds, err := generate(datasets.MNISTLike(cfg.Scale))
	if err != nil {
		return err
	}
	fStar, err := oracleFStar(ds, lambda)
	if err != nil {
		return err
	}
	section(w, "Penalty-policy ablation — %s, %d ranks, %d epochs", ds.Name, ranks, epochs)

	tab := NewTable("policies",
		"policy", "final objective", "epochs to theta<0.05", "final primal residual")
	for _, policy := range []string{"spectral", "residual-balancing", "fixed"} {
		opts := admmOptions(epochs, lambda, false)
		opts.Penalty = policy
		res, err := core.Solve(cfg.cluster(ranks), ds, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", policy, err)
		}
		final, _ := res.Trace.Final()
		reached := "not reached"
		if e, ok := res.Trace.EpochsToObjective(fStar + fig3Theta*math.Abs(fStar)); ok {
			reached = fmt.Sprintf("%d", e)
		}
		tab.Add(policy, final.Objective, reached, res.PrimalResidual)
	}
	return tab.Render(w)
}

// runAblationNetwork re-times one epoch budget of each solver under
// progressively worse interconnects. Only the modeled communication term
// changes, so the table isolates the communication structure: SGD's
// per-mini-batch round and GIANT's 3 rounds degrade much faster than
// Newton-ADMM's single round.
func runAblationNetwork(cfg RunConfig, w io.Writer) error {
	cfg = cfg.withDefaults()
	const lambda = 1e-5
	const ranks = 8
	epochs := cfg.epochs(10)
	ds, err := generate(datasets.MNISTLike(cfg.Scale))
	if err != nil {
		return err
	}
	section(w, "Network ablation — %s, %d ranks, %d epochs", ds.Name, ranks, epochs)

	nets := []cluster.NetworkModel{
		cluster.InfiniBand100G, cluster.Ethernet10G, cluster.Ethernet1G, cluster.WAN,
	}
	tab := NewTable("avg epoch time by interconnect",
		"network", "newton-admm", "giant", "sync-sgd", "admm/giant advantage")
	for _, net := range nets {
		ccfg := cfg.cluster(ranks)
		ccfg.Network = net
		aRes, err := core.Solve(ccfg, ds, admmOptions(epochs, lambda, false))
		if err != nil {
			return err
		}
		gRes, err := baselines.SolveGIANT(ccfg, ds, giantOptions(epochs, lambda, false))
		if err != nil {
			return err
		}
		sRes, err := baselines.SolveSyncSGD(ccfg, ds, baselines.SGDOptions{
			Epochs: epochs, Lambda: lambda, BatchSize: 128, Step: 1, Seed: 4,
		})
		if err != nil {
			return err
		}
		a := aRes.Trace.AvgEpochTime()
		g := gRes.Trace.AvgEpochTime()
		s := sRes.Trace.AvgEpochTime()
		tab.Add(net.Name, a, g, s, fmt.Sprintf("%.2fx", float64(g)/float64(a)))
	}
	return tab.Render(w)
}

// runAblationInexact sweeps the CG budget on a single-node Newton solve,
// demonstrating the inexactness claim the whole design rests on.
func runAblationInexact(cfg RunConfig, w io.Writer) error {
	cfg = cfg.withDefaults()
	const lambda = 1e-5
	epochs := cfg.epochs(40)
	ds, err := generate(datasets.MNISTLike(cfg.Scale))
	if err != nil {
		return err
	}
	fStar, err := oracleFStar(ds, lambda)
	if err != nil {
		return err
	}
	section(w, "CG inexactness ablation — single-node Newton on %s", ds.Name)

	dev := device.New("ablation-inexact", 0)
	defer dev.Close()
	prob, err := loss.NewSoftmax(dev, ds.Xtrain, ds.Ytrain, ds.Classes, lambda)
	if err != nil {
		return err
	}

	tab := NewTable("CG budget sweep",
		"cg iters", "newton iters", "wall time", "final objective", "relative gap")
	for _, iters := range []int{3, 10, 30, 100} {
		x := make([]float64, prob.Dim())
		start := time.Now()
		res := newton.Solve(prob, x, newton.Options{
			MaxIters: epochs, GradTol: 1e-6,
			CG: cg.Options{MaxIters: iters, RelTol: 1e-12},
		})
		elapsed := time.Since(start)
		gap := (res.Value - fStar) / math.Abs(fStar)
		tab.Add(iters, res.Iters, elapsed, res.Value, gap)
	}
	return tab.Render(w)
}
