package harness

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"time"

	"newtonadmm/internal/baselines"
	"newtonadmm/internal/cg"
	"newtonadmm/internal/cluster"
	"newtonadmm/internal/core"
	"newtonadmm/internal/datasets"
	"newtonadmm/internal/dist"
	"newtonadmm/internal/linesearch"
	"newtonadmm/internal/loss"
	"newtonadmm/internal/newton"
)

// experiments is the paper's evaluation, one row per table or figure plus
// the ablations of its design claims.
var experiments = []Experiment{
	{
		ID:     "table1",
		Title:  "Table 1: description of the datasets",
		Paper:  "HIGGS 11M x 28 (2 classes), MNIST 70k x 784 (10), CIFAR-10 60k x 3072 (10), E18 1.3M x 279,998 (20)",
		Header: "Table 1 — datasets (synthetic analogues at scale {scale})",
		Sweeps: []Sweep{{Table: "this reproduction", Presets: allPresets}},
		Columns: []Column{
			{"classes", func(p *Point, _ *Result) any { return p.DS.Classes }},
			{"dataset", dataset},
			{"samples", func(p *Point, _ *Result) any { return p.DS.TrainSize() }},
			{"test size", func(p *Point, _ *Result) any { return p.DS.TestSize() }},
			{"features", func(p *Point, _ *Result) any { return p.DS.NumFeatures() }},
			{"storage", func(p *Point, _ *Result) any { s, _ := storage(p.DS); return s }},
			{"nnz", func(p *Point, _ *Result) any { _, nnz := storage(p.DS); return nnz }},
		},
		ByPoint: true,
		Blocks:  []block{paperTable1, tables},
		Claim: Claim{
			Text: "every analogue has its Table 1 dataset's classes and features (E18: the 27,998 features of the paper's §7)",
			Check: func(pts []*Point) (bool, string) {
				want := map[string]string{"higgs-like": "2x28", "mnist-like": "10x784", "cifar-like": "10x3072", "e18-like": "20x27998"}
				holds, got := true, make([]string, len(pts))
				for i, p := range pts {
					shape := fmt.Sprintf("%dx%d", p.DS.Classes, p.DS.NumFeatures())
					holds = holds && shape == want[p.DS.Name]
					got[i] = p.DS.Name + " " + shape
				}
				return holds, strings.Join(got, ", ")
			},
		},
	},
	{
		ID:    "fig1",
		Title: "Figure 1: training objective vs time, second-order solvers on MNIST",
		Paper: "Newton-ADMM and GIANT reach F < 0.25 in seconds; InexactDANE " +
			"and AIDE epochs are ~4 orders of magnitude slower " +
			"(Newton-ADMM 2.4s vs InexactDANE ~1.5h to F < 0.25)",
		Header:  "Figure 1 — {dataset}, lambda={lambda}, {ranks} ranks, network {network}",
		Sweeps:  []Sweep{{Table: "summary", Presets: mnist, Ranks: []int{4}}},
		Epochs:  100,
		Arms:    []Arm{admm, giant, inexactDANE, aide},
		Columns: []Column{{"solver", solver}, {"epochs", epochCount}, {"avg epoch time", avgEpoch}, {"final objective", finalObjective}, {"note", note}},
		Blocks:  []block{tables, epochGap, series(12)},
		Claim: Claim{
			Text: "an InexactDANE or AIDE epoch costs at least 10^3x (the low end of ~10^4x) the busiest-rank kernel FLOPs of a Newton-ADMM epoch",
			Check: func(pts []*Point) (bool, string) {
				r := pts[0].Runs
				dane, aide := flops(r[2])/flops(r[0]), flops(r[3])/flops(r[0])
				return dane >= 1e3 && aide >= 1e3, fmt.Sprintf("inexact-dane %.3gx, aide %.3gx", dane, aide)
			},
			Finding: "light SVRG budget: quick runs keep SVRG's default inner budget, so an InexactDANE or AIDE epoch does fewer kernel FLOPs than a Newton-ADMM epoch, not 10^3x more",
		},
	},
	{
		ID:    "fig2",
		Title: "Figure 2: average epoch time, strong and weak scaling (Newton-ADMM vs GIANT)",
		Paper: "strong scaling: epoch time roughly halves as workers double " +
			"(HIGGS scales best); weak scaling: epoch time stays roughly " +
			"constant as workers double",
		Header: "Figure 2 — avg epoch time (ms), {epochs} epochs, network {network}",
		Sweeps: []Sweep{
			{Table: "strong scaling (fixed total samples)", Presets: allPresets, Ranks: scalingRanks},
			{Table: "weak scaling (fixed samples per rank)", Presets: allPresets, Ranks: scalingRanks, Weak: true},
		},
		Epochs:  10,
		Arms:    []Arm{admm, giant},
		Columns: []Column{{"dataset", dataset}, {"ranks", rankTag}, {"newton-admm", arm(0, avgEpoch)}, {"giant", arm(1, avgEpoch)}},
		ByPoint: true,
		Claim: Claim{
			Text: "for both solvers the busiest rank's kernel FLOPs per epoch stay within 1.25x of their share of one rank's: " +
				"1/ranks of it under strong scaling (epoch time halves as ranks double), all of it under weak scaling (constant)",
			Check: func(pts []*Point) (bool, string) {
				spread, worst := 1.0, ""
				var first *Point
				for i, p := range pts {
					if i == 0 || p.DS.Name != pts[i-1].DS.Name || p.Weak != pts[i-1].Weak {
						first = p
					}
					share := 1.0
					if !p.Weak {
						share = float64(first.Ranks) / float64(p.Ranks)
					}
					for a, r := range p.Runs {
						ratio := flops(r) / (share * flops(first.Runs[a]))
						if s := max(ratio, 1/ratio); s > spread {
							spread, worst = s, fmt.Sprintf("%s %s %s", p.DS.Name, rankTag(p, nil), r.Arm.Name)
						}
					}
				}
				return spread <= 1.25, fmt.Sprintf("worst %.3gx off its share at %s", spread, worst)
			},
			Finding: "GIANT's CG stops early: at some rank counts GIANT's inner CG exits before its 10-iteration budget, so its per-rank work does not track the shard size",
		},
	},
	{
		ID:    "fig3",
		Title: "Figure 3: speedup ratio (GIANT time / Newton-ADMM time) to theta < 0.05",
		Paper: "HIGGS ~1.3x constant; E18 strong scaling 18x down to 1.3x; " +
			"CIFAR-10 speedup grows with ranks (ill-conditioning); " +
			"E18 weak scaling omitted (single-node x* infeasible)",
		Header: "Figure 3 — speedup to theta < {theta} (cap {epochs} epochs, network {network})",
		Sweeps: []Sweep{
			{Table: "strong scaling speedup", Presets: allPresets, Ranks: scalingRanks},
			{Table: "weak scaling speedup (E18 omitted, as in the paper)", Presets: allPresets[:3], Ranks: scalingRanks, Weak: true},
		},
		Epochs:       150,
		Theta:        0.05,
		StopAtTarget: true,
		Arms:         []Arm{admm, giant},
		Columns: []Column{
			{"dataset", dataset}, {"ranks", rankTag}, {"speedup", speedup},
			{"admm epochs", arm(0, epochsToTarget)}, {"giant epochs", arm(1, epochsToTarget)},
		},
		ByPoint: true,
		Claim: Claim{
			Text: "at every dataset and rank count Newton-ADMM reaches theta < 0.05 within the cap, in no more epochs than GIANT",
			Check: func(pts []*Point) (bool, string) {
				var missed []string
				for _, p := range pts {
					ea, okA := reached(p, p.Runs[0])
					eg, okG := reached(p, p.Runs[1])
					if !okA || okG && eg < ea {
						missed = append(missed, fmt.Sprintf("%s %s", p.DS.Name, rankTag(p, nil)))
					}
				}
				return len(missed) == 0, fmt.Sprintf("%d of %d points miss: %s", len(missed), len(pts), strings.Join(missed, ", "))
			},
			Finding: "5-epoch cap: within the quick budget Newton-ADMM reaches theta < 0.05 on higgs-like only",
		},
	},
	{
		ID:    "fig4",
		Title: "Figure 4: Newton-ADMM vs synchronous SGD (objective & test accuracy vs time)",
		Paper: "Newton-ADMM reaches matching accuracy in much less time: " +
			"22.5x (HIGGS), 2.48x (MNIST), 2.06x (CIFAR-10), 3.69x (E18); " +
			"weak scaling with 8 workers (E18: 16)",
		Header: "Figure 4 — vs synchronous SGD, {epochs} epochs, network {network}",
		Sweeps: []Sweep{
			{Table: "summary", Presets: allPresets[:3], Ranks: []int{8}, Weak: true},
			{Table: "summary", Presets: []preset{datasets.E18Like}, Ranks: []int{16}, Weak: true},
		},
		Epochs:       100,
		TestAccuracy: true,
		Arms: []Arm{
			// Newton-ADMM's CG budget is swept at tolerance 1e-10, as in
			// the paper; SGD uses batch 128 and the best step size.
			newtonADMM("newton-admm (cg=%.0f)", func(o *core.Options, v float64) {
				o.CG = cg.Options{MaxIters: int(v), RelTol: 1e-10}
			}, 10, 20, 30),
			syncSGD("sync-sgd (step=%.0e)", 1, 1e-1, 1e1),
		},
		Columns: []Column{
			{"dataset", dataset}, {"ranks", func(p *Point, _ *Result) any { return p.Ranks }}, {"solver", solver},
			{"final objective", finalObjective}, {"final test acc", func(_ *Point, r *Result) any { return final(r).TestAccuracy }},
			{"total time", func(_ *Point, r *Result) any { return final(r).Time }}, {"speedup to SGD's best F", speedupToSGD},
		},
		Blocks: []block{series(10), tables},
		Claim: Claim{
			Text: "on every dataset Newton-ADMM reaches sync-SGD's best objective in at most half the epochs SGD takes (the paper's smallest speedup is 2.06x)",
			Check: func(pts []*Point) (bool, string) {
				holds, got := true, make([]string, len(pts))
				for i, p := range pts {
					sgd := &p.Runs[1].Trace
					best := sgd.BestObjective()
					es, _ := sgd.EpochsToObjective(best)
					ea, ok := p.Runs[0].Trace.EpochsToObjective(best)
					holds = holds && ok && 2*ea <= es
					got[i] = fmt.Sprintf("%s %d vs %d", p.DS.Name, ea, es)
				}
				return holds, strings.Join(got, ", ")
			},
		},
	},
	{
		ID:    "fig5",
		Title: "Figure 5: weak scaling on E18 with 16 workers, lambda in {1e-3, 1e-5}",
		Paper: "avg epoch time 1.87s (Newton-ADMM) vs 2.44s (GIANT); " +
			"Newton-ADMM converges faster at both lambdas despite the " +
			"high-dimensional Hessian-free-only regime",
		Header:  "Figure 5 — {dataset}, {ranks} ranks weak scaling, {epochs} epochs, network {network}",
		Sweeps:  []Sweep{{Table: "summary", Presets: []preset{datasets.E18Like}, Ranks: []int{16}, Weak: true}},
		Lambdas: []float64{1e-3, 1e-5},
		Epochs:  30,
		Arms:    []Arm{admm, giant},
		Columns: []Column{
			{"lambda", func(p *Point, _ *Result) any { return fmt.Sprintf("%.0e", p.Lambda) }},
			{"solver", solver}, {"avg epoch time", avgEpoch}, {"final objective", finalObjective},
		},
		Blocks: []block{series(8), tables},
		Claim: Claim{
			Text: "at both lambdas Newton-ADMM ends below GIANT after the same epochs",
			Check: func(pts []*Point) (bool, string) {
				holds, got := true, make([]string, len(pts))
				for i, p := range pts {
					a, g := final(p.Runs[0]).Objective, final(p.Runs[1]).Objective
					holds = holds && a < g
					got[i] = fmt.Sprintf("lambda %.0e: %.4g vs %.4g", p.Lambda, a, g)
				}
				return holds, strings.Join(got, "; ")
			},
			Finding: "GIANT ahead at lambda 1e-3: GIANT ends below Newton-ADMM there, while at 1e-5 no GIANT step lowers the objective and it stays at its start",
		},
	},
	{
		ID:    "ablation-penalty",
		Title: "Ablation: penalty policy (SPS vs residual balancing vs fixed rho)",
		Paper: "§2.2: residual balancing 'is still not effective in practice'; " +
			"SPS 'yields significant improvement in the efficiency of ADMM'",
		Header: "Penalty-policy ablation — {dataset}, {ranks} ranks, {epochs} epochs",
		Sweeps: []Sweep{{Table: "policies", Presets: mnist, Ranks: []int{4}}},
		Epochs: 60,
		Theta:  0.05,
		Arms:   []Arm{penalty("spectral"), penalty("residual-balancing"), penalty("fixed")},
		Columns: []Column{
			{"policy", solver}, {"final objective", finalObjective}, {"epochs to theta<0.05", epochsToTheta},
			{"final primal residual", func(_ *Point, r *Result) any { return r.ADMM.PrimalResidual }},
		},
		Claim: Claim{
			Text: "spectral penalty selection ends below residual balancing and fixed rho after the same epochs",
			Check: func(pts []*Point) (bool, string) {
				r := pts[0].Runs
				s, b, f := final(r[0]).Objective, final(r[1]).Objective, final(r[2]).Objective
				return s < b && s < f, fmt.Sprintf("spectral %.6g, residual-balancing %.6g, fixed %.6g", s, b, f)
			},
		},
	},
	{
		ID:    "ablation-network",
		Title: "Ablation: interconnect sensitivity (Newton-ADMM vs GIANT vs SGD)",
		Paper: "§3: 'the difference in communication overhead ... is not " +
			"crippling [on 100Gbps InfiniBand]. However, in environments " +
			"with low bandwidth and high latency, this can lead to " +
			"significant performance degradation'",
		Header:   "Network ablation — {dataset}, {ranks} ranks, {epochs} epochs",
		Sweeps:   []Sweep{{Table: "avg epoch time by interconnect", Presets: mnist, Ranks: []int{8}}},
		Networks: []cluster.NetworkModel{cluster.InfiniBand100G, cluster.Ethernet10G, cluster.Ethernet1G, cluster.WAN},
		Epochs:   10,
		Arms:     []Arm{admm, giant, syncSGD("sync-sgd", 1)},
		Columns: []Column{
			{"network", func(p *Point, _ *Result) any { return p.Net.Name }},
			{"newton-admm", arm(0, avgEpoch)}, {"giant", arm(1, avgEpoch)}, {"sync-sgd", arm(2, avgEpoch)},
			{"admm/giant advantage", func(p *Point, _ *Result) any {
				return fmt.Sprintf("%.2fx", float64(p.Runs[1].Trace.AvgEpochTime())/float64(p.Runs[0].Trace.AvgEpochTime()))
			}},
		},
		ByPoint: true,
		Claim: Claim{
			Text: "on the high-latency, low-bandwidth WAN model, GIANT's and sync-SGD's modeled communication per epoch exceed Newton-ADMM's",
			Check: func(pts []*Point) (bool, string) {
				p := pts[len(pts)-1]
				a, g, s := comm(p.Runs[0]), comm(p.Runs[1]), comm(p.Runs[2])
				return p.Net == cluster.WAN && g > a && s > a, fmt.Sprintf("%s per epoch: newton-admm %s, giant %s, sync-sgd %s",
					p.Net.Name, formatDuration(a), formatDuration(g), formatDuration(s))
			},
		},
	},
	{
		ID:     "ablation-inexact",
		Title:  "Ablation: CG inexactness (paper §2.1 claim)",
		Paper:  "§2.1: a mild CG tolerance 'yields good performance, comparable to the exact update'",
		Header: "CG inexactness ablation — single-node Newton on {dataset}",
		Sweeps: []Sweep{{Table: "CG budget sweep", Presets: mnist}},
		Epochs: 40,
		Theta:  0.05,
		Arms:   []Arm{newtonCG(3), newtonCG(10), newtonCG(30), newtonCG(100)},
		Columns: []Column{
			{"cg iters", solver}, {"newton iters", func(_ *Point, r *Result) any { return r.Iters }},
			{"wall time", func(_ *Point, r *Result) any { return final(r).Time }}, {"final objective", finalObjective},
			{"relative gap", func(p *Point, r *Result) any { return (final(r).Objective - p.FStar) / math.Abs(p.FStar) }},
		},
		Claim: Claim{
			Text: "Newton with the paper's 10 CG iterations ends within 5% of the objective it reaches with 100 near-exact iterations",
			Check: func(pts []*Point) (bool, string) {
				f10, f100 := final(pts[0].Runs[1]).Objective, final(pts[0].Runs[3]).Objective
				gap := (f10 - f100) / math.Abs(f100)
				return gap <= 0.05, fmt.Sprintf("10 iterations end %.3g relative above 100", gap)
			},
			Finding: "5 Newton iterations: the quick budget stops Newton long before the 10- and 100-iteration runs meet",
		},
	},
	{
		ID:    "extra-jacobi",
		Title: "Extra: Jacobi-preconditioned CG on the ill-conditioned regime",
		Paper: "beyond the paper: diagonal preconditioning of the inner CG " +
			"solve, most useful exactly where the paper's Figure 3 shows " +
			"GIANT struggling (ill-conditioned CIFAR-10-like spectra)",
		Header: "Jacobi ablation — {dataset}, {ranks} ranks, {epochs} epochs, CG budget 10",
		Sweeps: []Sweep{{Table: "preconditioning", Presets: []preset{datasets.CIFARLike}, Ranks: []int{4}}},
		Epochs: 30,
		Arms: []Arm{
			newtonADMM("none", nil),
			newtonADMM("jacobi", func(o *core.Options, _ float64) { o.Jacobi = true }),
		},
		Columns: []Column{{"cg preconditioner", solver}, {"final objective", finalObjective}, {"avg epoch time", avgEpoch}},
		Claim: Claim{
			Text: "at the same 10-iteration CG budget, Jacobi-preconditioned Newton-ADMM ends below the unpreconditioned run on cifar-like",
			Check: func(pts []*Point) (bool, string) {
				n, j := final(pts[0].Runs[0]).Objective, final(pts[0].Runs[1]).Objective
				return j < n, fmt.Sprintf("jacobi %.8g vs none %.8g", j, n)
			},
			Finding: "no gain in 5 epochs: the preconditioned run ends a hair above the plain one",
		},
	},
	{
		ID:    "extra-disco",
		Title: "Extra: communication-round census of the second-order field (incl. DiSCO)",
		Paper: "§1.2/§3: DiSCO is named among the compared second-order methods " +
			"but not plotted; its inner distributed PCG pays one allreduce " +
			"per iteration, so its round count per epoch dwarfs Newton-ADMM's " +
			"single gather+scatter",
		Header:  "Second-order round census — {dataset}, {ranks} ranks, {epochs} epochs",
		Sweeps:  []Sweep{{Table: "solvers", Presets: mnist, Ranks: []int{4}}},
		Lambdas: []float64{1e-3}, // DiSCO's damped steps favor moderate regularization
		Epochs:  30,
		Arms: []Arm{admm, giant, {Name: "disco", Solver: func(float64, *Point, *Result) dist.Solver {
			return baselines.DiSCO(baselines.DiSCOOptions{PCGIters: 10, PCGTol: 1e-4})
		}}},
		Columns: []Column{
			{"solver", solver}, {"rounds/epoch", func(_ *Point, r *Result) any { return rounds(r) }},
			{"avg epoch time", avgEpoch}, {"final objective", finalObjective},
		},
		Claim: Claim{
			Text: "DiSCO needs at least 10x Newton-ADMM's collective rounds per epoch",
			Check: func(pts []*Point) (bool, string) {
				a, d := rounds(pts[0].Runs[0]), rounds(pts[0].Runs[2])
				return d >= 10*a, fmt.Sprintf("disco %.3g vs newton-admm %.3g rounds per epoch", d, a)
			},
		},
	},
}

var (
	allPresets   = []preset{datasets.HiggsLike, datasets.MNISTLike, datasets.CIFARLike, datasets.E18Like}
	mnist        = []preset{datasets.MNISTLike}
	scalingRanks = []int{1, 2, 4, 8}

	// paperCG and paperLS are the inner budgets Figure 1 fixes for the
	// fair Newton-ADMM vs GIANT comparison: 10 CG iterations at 1e-4 and
	// at most 10 line-search halvings.
	paperCG = cg.Options{MaxIters: 10, RelTol: 1e-4}
	paperLS = linesearch.Options{MaxIters: 10}

	admm  = newtonADMM("newton-admm", nil)
	giant = Arm{Name: "giant", Solver: func(float64, *Point, *Result) dist.Solver {
		return baselines.GIANT(baselines.GiantOptions{CG: paperCG, LineSearch: paperLS})
	}}
	// InexactDANE (eta 1, mu 0, SVRG inner solver) and AIDE get at most 10
	// epochs, as in the paper, because each epoch sweeps the shard many
	// times; the paper sweeps the SVRG step and tau over 1e-4..1e4.
	inexactDANE = Arm{Name: "inexact-dane", Note: "best SVRG step %.0e", Values: []float64{1, 1e-1, 1e1}, MaxEpochs: 10,
		Solver: func(v float64, p *Point, _ *Result) dist.Solver {
			return baselines.InexactDANE(baselines.DANEOptions{Eta: 1, Seed: 1, SVRG: fig1SVRG(v, p.quick)})
		}}
	aide = Arm{Name: "aide", Note: "best tau %.0e", Values: []float64{1, 1e-2, 1e2}, MaxEpochs: 10,
		Solver: func(v float64, p *Point, _ *Result) dist.Solver {
			return baselines.AIDE(baselines.AIDEOptions{Tau: v, DANE: baselines.DANEOptions{Eta: 1, Seed: 2, SVRG: fig1SVRG(1, p.quick)}})
		}}
)

// newtonADMM is the paper's solver at Figure 1's budgets; set, when
// non-nil, adjusts its options for the variant v.
func newtonADMM(name string, set func(o *core.Options, v float64), values ...float64) Arm {
	return Arm{Name: name, Values: values, Solver: func(v float64, p *Point, r *Result) dist.Solver {
		o := core.Options{CG: paperCG, LineSearch: paperLS}
		if set != nil {
			set(&o, v)
		}
		r.ADMM.FinalRhos = make([]float64, p.Ranks)
		return core.Solver(o, &r.ADMM)
	}}
}

func penalty(policy string) Arm {
	return newtonADMM(policy, func(o *core.Options, _ float64) { o.Penalty = policy })
}

func syncSGD(name string, steps ...float64) Arm {
	return Arm{Name: name, Values: steps, Solver: func(v float64, _ *Point, _ *Result) dist.Solver {
		return baselines.SyncSGD(baselines.SGDOptions{BatchSize: 128, Step: v, Seed: 4})
	}}
}

// fig1SVRG approximates the paper's SVRG budget ("100 iterations,
// update frequency 2n") scaled to the harness sizes: 8 snapshot rounds
// of 2n/8 mini-batch steps each — deliberately lighter than the paper's
// (batch-1, 100-round) budget so the experiment completes in minutes,
// which means the measured DANE/ADMM epoch-cost gap *understates* the
// paper's four orders of magnitude. Quick mode keeps the light default.
func fig1SVRG(step float64, quick bool) baselines.SVRGOptions {
	if quick {
		return baselines.SVRGOptions{Step: step}
	}
	return baselines.SVRGOptions{Step: step, Snapshots: 8, BatchSize: 8}
}

// newtonCG is Algorithm 1 on one rank with iters CG iterations at
// tolerance 1e-12, one Newton iteration per epoch, so the trace records
// every step and Run.Iters counts the steps taken.
func newtonCG(iters int) Arm {
	return Arm{Name: strconv.Itoa(iters), Solver: func(_ float64, _ *Point, r *Result) dist.Solver {
		return baselines.Newton(newton.Options{GradTol: 1e-6, CG: cg.Options{MaxIters: iters, RelTol: 1e-12}}, &r.Iters)
	}}
}

func paperTable1(w io.Writer, _ *Experiment, _ []*Point) error {
	t := NewTable("paper originals", "classes", "dataset", "samples", "test size", "features")
	t.Add(2, "HIGGS", 11000000, 1000000, 28)
	t.Add(10, "MNIST", 70000, 10000, 784)
	t.Add(10, "CIFAR-10", 60000, 10000, 3072)
	t.Add(20, "E18", 1306127, 6000, 279998)
	return t.Render(w)
}

// epochGap is Figure 1's headline in time: an InexactDANE epoch over a
// Newton-ADMM one.
func epochGap(w io.Writer, _ *Experiment, pts []*Point) error {
	r := pts[0].Runs
	_, err := fmt.Fprintf(w, "InexactDANE epoch / Newton-ADMM epoch = %.1fx\n\n",
		float64(r[2].Trace.AvgEpochTime())/float64(r[0].Trace.AvgEpochTime()))
	return err
}

func storage(ds *datasets.Dataset) (string, int) {
	if sp, ok := ds.Xtrain.(loss.Sparse); ok {
		return "csr", sp.M.NNZ()
	}
	return "dense", ds.TrainSize() * ds.NumFeatures()
}

func final(r *Result) dist.Point { p, _ := r.Trace.Final(); return p }

// label formats an arm's name or note with its winning variant's value.
func label(format string, v float64) string {
	if strings.Contains(format, "%") {
		return fmt.Sprintf(format, v)
	}
	return format
}

// arm reads cell from a point's i-th run, for point-row columns.
func arm(i int, cell func(*Point, *Result) any) func(*Point, *Result) any {
	return func(p *Point, _ *Result) any { return cell(p, p.Runs[i]) }
}

func dataset(p *Point, _ *Result) any        { return p.DS.Name }
func solver(_ *Point, r *Result) any         { return label(r.Arm.Name, r.Value) }
func note(_ *Point, r *Result) any           { return label(r.Arm.Note, r.Value) }
func epochCount(_ *Point, r *Result) any     { return final(r).Epoch }
func avgEpoch(_ *Point, r *Result) any       { return r.Trace.AvgEpochTime() }
func finalObjective(_ *Point, r *Result) any { return final(r).Objective }

func rankTag(p *Point, _ *Result) any {
	if p.Weak {
		return fmt.Sprintf("w%d", p.Ranks)
	}
	return fmt.Sprintf("s%d", p.Ranks)
}

func reached(p *Point, r *Result) (int, bool) { return r.Trace.EpochsToObjective(p.Target) }

func epochsToTarget(p *Point, r *Result) any { e, _ := reached(p, r); return e }

func epochsToTheta(p *Point, r *Result) any {
	if e, ok := reached(p, r); ok {
		return strconv.Itoa(e)
	}
	return "not reached"
}

// speedup is Figure 3's ratio: GIANT's time to target over Newton-ADMM's.
func speedup(p *Point, _ *Result) any {
	ta, okA := p.Runs[0].Trace.TimeToObjective(p.Target)
	tg, okG := p.Runs[1].Trace.TimeToObjective(p.Target)
	if !okA || !okG || ta <= 0 {
		return "not reached"
	}
	return fmt.Sprintf("%.2fx", float64(tg)/float64(ta))
}

// speedupToSGD is Figure 4's ratio: sync-SGD's time to its best objective
// over this run's time to the same objective.
func speedupToSGD(p *Point, r *Result) any {
	sgd := &p.Runs[1].Trace
	if r == p.Runs[1] {
		return "1x"
	}
	target := sgd.BestObjective()
	ts, _ := sgd.TimeToObjective(target)
	t, ok := r.Trace.TimeToObjective(target)
	if !ok || t <= 0 {
		return "n/a"
	}
	return fmt.Sprintf("%.2fx", float64(ts)/float64(t))
}

// perEpoch divides a run's total by the epochs it ran.
func perEpoch(r *Result, total float64) float64 { return total / float64(max(final(r).Epoch, 1)) }

// flops is the busiest rank's kernel FLOPs per epoch.
func flops(r *Result) float64 {
	var busiest int64
	for _, s := range r.Stats {
		busiest = max(busiest, s.DevStats.FLOPs)
	}
	return perEpoch(r, float64(busiest))
}

// comm is the modeled communication time per epoch.
func comm(r *Result) time.Duration {
	return time.Duration(perEpoch(r, float64(r.Stats[0].CommTime)))
}

func rounds(r *Result) float64 { return perEpoch(r, float64(r.Stats[0].Rounds)) }
