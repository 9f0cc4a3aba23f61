// Package harness regenerates the paper's evaluation — Table 1, Figures
// 1–5 and the ablations behind its §2–3 claims — from one table of
// experiments (experiments.go) and one loop over it (Run). Each experiment
// is a row of data: the presets, λ, rank sweep, scaling, interconnects and
// solver arms it runs, the columns it prints, and its claim. The
// nadmm-bench CLI prints the tables and one claim line per experiment;
// the package test asserts every claim's recorded outcome at a CI size.
package harness

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"newtonadmm/internal/cg"
	"newtonadmm/internal/cluster"
	"newtonadmm/internal/core"
	"newtonadmm/internal/datasets"
	"newtonadmm/internal/device"
	"newtonadmm/internal/dist"
	"newtonadmm/internal/loss"
	"newtonadmm/internal/newton"
)

// RunConfig tunes an experiment run.
type RunConfig struct {
	// Scale multiplies the preset dataset sizes; <=0 selects 1.
	Scale float64
	// Epochs overrides every experiment's epoch budget when > 0.
	Epochs int
	// Network is the interconnect model of experiments that do not sweep
	// one; the zero value selects the paper's InfiniBand100G.
	Network cluster.NetworkModel
	// Quick shrinks datasets and budgets to smoke-test size and runs only
	// each arm's first variant.
	Quick bool
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Scale <= 0 {
		c.Scale = 1
	}
	if c.Quick {
		c.Scale = min(c.Scale, 0.05)
	}
	if c.Network == (cluster.NetworkModel{}) {
		c.Network = cluster.InfiniBand100G
	}
	return c
}

func (c RunConfig) epochs(def int) int {
	if c.Epochs > 0 {
		return c.Epochs
	}
	if c.Quick {
		return min(def, 5)
	}
	return def
}

// preset builds a Table 1 analogue at a scale (datasets.HiggsLike, ...).
type preset = func(scale float64) datasets.Config

// Sweep is a set of points an experiment runs: presets × ranks, strongly
// or weakly scaled, rendered into the table it names.
type Sweep struct {
	Table   string
	Presets []preset
	Ranks   []int // nil: one rank
	// Weak holds the samples per rank fixed (the preset's samples over 8)
	// and grows the dataset with the rank count; strong scaling splits
	// the preset's samples across the ranks.
	Weak bool
}

// Arm is one solver of an experiment. Each of its Values is a variant
// (a swept hyper-parameter); the variant with the lowest objective is
// the arm's result at a point.
type Arm struct {
	// Name labels the arm's rows; Note fills a note column. Either may
	// format the winning variant's value (a float64).
	Name, Note string
	Values     []float64 // nil: one variant, value 0
	MaxEpochs  int       // caps the experiment's budget when > 0
	Solver     func(v float64, p *Point, r *Result) dist.Solver
}

// Column is one column of an experiment's tables: a header and a cell.
// A table has a row per arm run, whose Result the cell gets, or with
// ByPoint a row per point, where r is nil.
type Column struct {
	Header string
	Cell   func(p *Point, r *Result) any
}

// Claim is an experiment's Paper: string restated as a check on its
// points. Checks use only quantities the program computes
// deterministically — objectives, epochs to target, collective rounds,
// modeled communication time and kernel FLOPs — never the virtual clock,
// which folds in measured compute time.
type Claim struct {
	Text  string
	Check func(pts []*Point) (holds bool, detail string)
	// Finding, when set, records that the claim fails at the size the
	// package test asserts it at, and why. A change that makes the claim
	// hold there fails the test until the finding is removed.
	Finding string
}

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	ID, Title string
	Paper     string // what the paper reports
	// Header is the section title; {dataset}, {lambda}, {ranks},
	// {network}, {epochs}, {scale} and {theta} take the first point's
	// values.
	Header   string
	Sweeps   []Sweep
	Lambdas  []float64              // nil: 1e-5
	Networks []cluster.NetworkModel // nil: the run's network
	Epochs   int                    // the budget before RunConfig overrides it
	// Theta > 0 solves each dataset once with single-node Newton for F*
	// and sets every point's target to F* + Theta |F*|; StopAtTarget ends
	// runs there (the paper's time-to-theta protocol).
	Theta        float64
	StopAtTarget bool
	TestAccuracy bool // measure test accuracy at every trace point
	Arms         []Arm
	Columns      []Column
	ByPoint      bool    // one table row per point instead of per arm run
	Blocks       []block // the output after the header; nil: the tables
	Claim        Claim
}

// Point is one setting an experiment runs its arms at.
type Point struct {
	DS            *datasets.Dataset
	Lambda        float64
	Ranks         int
	Weak          bool
	Net           cluster.NetworkModel
	FStar, Target float64   // set when the experiment has a Theta
	Runs          []*Result // one per arm, in arm order
	table         string
	quick         bool
}

// Result is one arm's winning variant at one point.
type Result struct {
	*dist.Result
	Arm   *Arm
	Value float64     // the winning variant
	ADMM  core.Result // Newton-ADMM's final residuals (Newton-ADMM arms)
	Iters int         // Newton iterations taken (single-node Newton arms)
}

// Outcome is one experiment's points and its claim's verdict.
type Outcome struct {
	Experiment *Experiment
	Points     []*Point
	Holds      bool
	Detail     string
}

// Experiments lists every experiment, sorted by ID.
func Experiments() []Experiment {
	out := slices.Clone(experiments)
	slices.SortStableFunc(out, func(a, b Experiment) int { return strings.Compare(a.ID, b.ID) })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

type oracleKey struct {
	cfg    datasets.Config
	lambda float64
}

// Run runs the experiments in order, writing each one's section, tables
// and claim line to w. F* is solved once per dataset and λ across them.
func Run(cfg RunConfig, w io.Writer, exps []Experiment) ([]Outcome, error) {
	cfg = cfg.withDefaults()
	fStars := map[oracleKey]float64{}
	var outs []Outcome
	for i := range exps {
		e := &exps[i]
		fmt.Fprintf(w, "### %s — %s\n### paper: %s\n\n", e.ID, e.Title, e.Paper)
		start := time.Now()
		pts, err := runPoints(cfg, e, fStars)
		if err != nil {
			return outs, fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := render(w, cfg, e, pts); err != nil {
			return outs, err
		}
		holds, detail := e.Claim.Check(pts)
		verdict := "holds"
		if !holds {
			verdict = "fails"
		}
		fmt.Fprintf(w, "claim: %s — %s (%s)\n\n", e.Claim.Text, verdict, detail)
		fmt.Fprintf(w, "### %s completed in %v\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		outs = append(outs, Outcome{Experiment: e, Points: pts, Holds: holds, Detail: detail})
	}
	return outs, nil
}

func orDefault[T any](xs []T, def T) []T {
	if len(xs) == 0 {
		return []T{def}
	}
	return xs
}

// runPoints is the one experiment loop: every sweep's presets × λ × ranks
// × networks, and at each point every arm's variants through dist.Run.
func runPoints(cfg RunConfig, e *Experiment, fStars map[oracleKey]float64) ([]*Point, error) {
	generated := map[datasets.Config]*datasets.Dataset{}
	var pts []*Point
	for _, s := range e.Sweeps {
		for _, pre := range s.Presets {
			for _, lambda := range orDefault(e.Lambdas, 1e-5) {
				for _, ranks := range orDefault(s.Ranks, 1) {
					dcfg := pre(cfg.Scale)
					if s.Weak {
						dcfg.Samples = max(dcfg.Samples/8, 8) * ranks
					}
					ds := generated[dcfg]
					if ds == nil {
						var err error
						if ds, err = datasets.Generate(dcfg); err != nil {
							return nil, err
						}
						generated[dcfg] = ds
					}
					for _, net := range orDefault(e.Networks, cfg.Network) {
						p := &Point{DS: ds, Lambda: lambda, Ranks: ranks, Weak: s.Weak, Net: net, table: s.Table, quick: cfg.Quick}
						if e.Theta > 0 {
							key := oracleKey{dcfg, lambda}
							fStar, ok := fStars[key]
							if !ok {
								var err error
								if fStar, err = oracleFStar(ds, lambda); err != nil {
									return nil, err
								}
								fStars[key] = fStar
							}
							p.FStar, p.Target = fStar, fStar+e.Theta*math.Abs(fStar)
						}
						for i := range e.Arms {
							r, err := runArm(cfg, e, p, &e.Arms[i])
							if err != nil {
								return nil, fmt.Errorf("%s %s ranks=%d: %w", ds.Name, e.Arms[i].Name, ranks, err)
							}
							p.Runs = append(p.Runs, r)
						}
						pts = append(pts, p)
					}
				}
			}
		}
	}
	return pts, nil
}

// runArm runs every variant of a at p and keeps the one with the lowest
// objective; quick runs keep the first variant only.
func runArm(cfg RunConfig, e *Experiment, p *Point, a *Arm) (*Result, error) {
	opts := dist.RunOptions{Epochs: cfg.epochs(e.Epochs), Lambda: p.Lambda, EvalTestAccuracy: e.TestAccuracy}
	if a.MaxEpochs > 0 {
		opts.Epochs = min(opts.Epochs, a.MaxEpochs)
	}
	if e.StopAtTarget {
		opts.TargetObjective = p.Target
	}
	values := orDefault(a.Values, 0)
	if cfg.Quick {
		values = values[:1]
	}
	var best *Result
	for _, v := range values {
		r := &Result{Arm: a, Value: v}
		res, err := dist.Run(cluster.Config{Ranks: p.Ranks, Network: p.Net}, p.DS, opts, a.Solver(v, p, r))
		if err != nil {
			return nil, err
		}
		r.Result = res
		if best == nil || res.Trace.BestObjective() < best.Trace.BestObjective() {
			best = r
		}
	}
	return best, nil
}

// oracleFStar computes F(x*) with a long single-node Newton run, the
// paper's protocol for the theta criterion of Figure 3.
func oracleFStar(ds *datasets.Dataset, lambda float64) (float64, error) {
	dev := device.New("oracle", 0)
	defer dev.Close()
	prob, err := loss.NewSoftmax(dev, ds.Xtrain, ds.Ytrain, ds.Classes, lambda)
	if err != nil {
		return 0, err
	}
	w := make([]float64, prob.Dim())
	// Budget scales down for very high-dimensional problems (the E18
	// regime): Newton's superlinear convergence makes a shorter run
	// sufficient for a theta = 0.05 reference, and the full budget would
	// dominate the experiment's wall time.
	opts := newton.Options{
		MaxIters: 300, GradTol: 1e-7,
		CG: cg.Options{MaxIters: 200, RelTol: 1e-10},
	}
	if prob.Dim() > 100000 {
		opts.MaxIters = 60
		opts.CG.MaxIters = 50
	}
	newton.Solve(prob, w, opts)
	return prob.Value(w), nil
}

// render writes an experiment's section header and its blocks.
func render(w io.Writer, cfg RunConfig, e *Experiment, pts []*Point) error {
	p := pts[0]
	fmt.Fprintf(w, "== %s ==\n\n", strings.NewReplacer(
		"{dataset}", p.DS.Name,
		"{lambda}", fmt.Sprintf("%.0e", p.Lambda),
		"{ranks}", strconv.Itoa(p.Ranks),
		"{network}", p.Net.Name,
		"{epochs}", strconv.Itoa(cfg.epochs(e.Epochs)),
		"{scale}", fmt.Sprintf("%.3g", cfg.Scale),
		"{theta}", fmt.Sprintf("%.2f", e.Theta),
	).Replace(e.Header))
	for _, b := range orDefault(e.Blocks, tables) {
		if err := b(w, e, pts); err != nil {
			return err
		}
	}
	return nil
}
