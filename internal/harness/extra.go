package harness

import (
	"fmt"
	"io"

	"newtonadmm/internal/baselines"
	"newtonadmm/internal/core"
	"newtonadmm/internal/datasets"
)

func init() {
	register(Experiment{
		ID:    "extra-jacobi",
		Title: "Extra: Jacobi-preconditioned CG on the ill-conditioned regime",
		Paper: "beyond the paper: diagonal preconditioning of the inner CG " +
			"solve, most useful exactly where the paper's Figure 3 shows " +
			"GIANT struggling (ill-conditioned CIFAR-10-like spectra)",
		Run: runExtraJacobi,
	})
	register(Experiment{
		ID:    "extra-disco",
		Title: "Extra: communication-round census of the second-order field (incl. DiSCO)",
		Paper: "§1.2/§3: DiSCO is named among the compared second-order methods " +
			"but not plotted; its inner distributed PCG pays one allreduce " +
			"per iteration, so its round count per epoch dwarfs Newton-ADMM's " +
			"single gather+scatter",
		Run: runExtraDiSCO,
	})
}

// runExtraDiSCO complements Figure 1: the same MNIST problem solved by
// Newton-ADMM, GIANT, and DiSCO, reporting communication rounds per epoch
// alongside epoch time and final objective — the structural quantity the
// paper's communication argument is about.
func runExtraDiSCO(cfg RunConfig, w io.Writer) error {
	cfg = cfg.withDefaults()
	const lambda = 1e-3 // DiSCO's damped steps favor moderate regularization
	const ranks = 4
	epochs := cfg.epochs(30)
	ds, err := generate(datasets.MNISTLike(cfg.Scale))
	if err != nil {
		return err
	}
	section(w, "Second-order round census — %s, %d ranks, %d epochs", ds.Name, ranks, epochs)

	tab := NewTable("solvers",
		"solver", "rounds/epoch", "avg epoch time", "final objective")
	ccfg := cfg.cluster(ranks)

	aRes, err := core.Solve(ccfg, ds, admmOptions(epochs, lambda, false))
	if err != nil {
		return fmt.Errorf("newton-admm: %w", err)
	}
	aFinal, _ := aRes.Trace.Final()
	tab.Add("newton-admm", float64(aRes.Stats[0].Rounds)/float64(max(aFinal.Epoch, 1)),
		aRes.Trace.AvgEpochTime(), aFinal.Objective)

	gRes, err := baselines.SolveGIANT(ccfg, ds, giantOptions(epochs, lambda, false))
	if err != nil {
		return fmt.Errorf("giant: %w", err)
	}
	gFinal, _ := gRes.Trace.Final()
	tab.Add("giant", float64(gRes.Stats[0].Rounds)/float64(max(gFinal.Epoch, 1)),
		gRes.Trace.AvgEpochTime(), gFinal.Objective)

	dRes, err := baselines.SolveDiSCO(ccfg, ds, baselines.DiSCOOptions{
		Epochs: epochs, Lambda: lambda, PCGIters: 10, PCGTol: 1e-4,
	})
	if err != nil {
		return fmt.Errorf("disco: %w", err)
	}
	dFinal, _ := dRes.Trace.Final()
	tab.Add("disco", float64(dRes.Stats[0].Rounds)/float64(max(dFinal.Epoch, 1)),
		dRes.Trace.AvgEpochTime(), dFinal.Objective)

	return tab.Render(w)
}

// runExtraJacobi compares plain and Jacobi-preconditioned Newton-ADMM on
// the ill-conditioned CIFAR analogue: same CG budget, final objective
// tells how much more progress the preconditioned solve extracts per
// iteration.
func runExtraJacobi(cfg RunConfig, w io.Writer) error {
	cfg = cfg.withDefaults()
	const lambda = 1e-5
	const ranks = 4
	epochs := cfg.epochs(30)
	ds, err := generate(datasets.CIFARLike(cfg.Scale))
	if err != nil {
		return err
	}
	section(w, "Jacobi ablation — %s, %d ranks, %d epochs, CG budget 10", ds.Name, ranks, epochs)

	tab := NewTable("preconditioning",
		"cg preconditioner", "final objective", "avg epoch time")
	for _, jacobi := range []bool{false, true} {
		opts := admmOptions(epochs, lambda, false)
		opts.Jacobi = jacobi
		res, err := core.Solve(cfg.cluster(ranks), ds, opts)
		if err != nil {
			return err
		}
		name := "none"
		if jacobi {
			name = "jacobi"
		}
		final, _ := res.Trace.Final()
		tab.Add(name, final.Objective, res.Trace.AvgEpochTime())
	}
	return tab.Render(w)
}
