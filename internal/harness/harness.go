// Package harness defines one runnable experiment per table and figure of
// the paper's evaluation (plus the ablations motivated by its design
// claims) and renders their results as text tables and series. Both the
// nadmm-bench CLI and the repository's testing.B benchmarks drive this
// package (see DESIGN.md for where the harness sits in the tree).
package harness

import (
	"fmt"
	"io"
	"sort"

	"newtonadmm/internal/cg"
	"newtonadmm/internal/cluster"
	"newtonadmm/internal/datasets"
	"newtonadmm/internal/device"
	"newtonadmm/internal/loss"
	"newtonadmm/internal/newton"
)

// RunConfig tunes an experiment run.
type RunConfig struct {
	// Scale multiplies the preset dataset sizes; <=0 selects 1. The
	// full-scale runs use 1; CI smoke tests use Quick instead.
	Scale float64
	// Epochs overrides the experiment's default epoch budget when > 0.
	Epochs int
	// Network is the interconnect model; zero value selects the paper's
	// InfiniBand100G.
	Network cluster.NetworkModel
	// Quick shrinks datasets and budgets to smoke-test size.
	Quick bool
	// DeviceWorkers caps per-rank accelerator workers (0 = auto).
	DeviceWorkers int
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
		if def > 5 {
			return 5
		}
	}
	return def
}

func (c RunConfig) cluster(ranks int) cluster.Config {
	return cluster.Config{
		Ranks:         ranks,
		Network:       c.Network,
		DeviceWorkers: c.DeviceWorkers,
	}
}

// clusterConfig abbreviates cluster.Config in experiment signatures.
type clusterConfig = cluster.Config

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	// ID is the harness identifier (e.g. "fig2").
	ID string
	// Title names the paper artifact.
	Title string
	// Paper summarizes what the paper reports for this artifact.
	Paper string
	// Run executes the experiment and writes tables/series to w.
	Run func(cfg RunConfig, w io.Writer) error
}

var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// Experiments lists all registered experiments in declaration order.
func Experiments() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// generate builds a preset dataset at the run's scale.
func generate(cfg datasets.Config) (*datasets.Dataset, error) {
	return datasets.Generate(cfg)
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

func section(w io.Writer, format string, args ...interface{}) {
	fmt.Fprintf(w, "== "+format+" ==\n\n", args...)
}
