// Package newtonadmm is a distributed GPU-style-accelerated second-order
// optimizer for multiclass classification, reproducing "Newton-ADMM: A
// Distributed GPU-Accelerated Optimizer for Multiclass Classification
// Problems" (Fang et al., SC 2020). The solver minimizes L2-regularized
// softmax cross-entropy (binary logistic regression when Classes == 2)
// over a simulated multi-node cluster: inexact Newton-CG on every rank,
// one consensus-ADMM communication round per iteration, and spectral
// penalty selection.
//
// The package also ships the paper's baselines (GIANT, InexactDANE, AIDE,
// synchronous SGD) behind the same Train call, synthetic analogues of the
// paper's datasets, an experiment harness that regenerates every table
// and figure of the evaluation, and an online inference subsystem —
// Predictor for in-process scoring and Serve for a micro-batching HTTP
// model server (see DESIGN.md for the architecture, PERF.md for the
// kernel layer and bench/README.md for measured numbers).
//
// Quickstart:
//
//	ds, _ := newtonadmm.PresetDataset("mnist", 0.5)
//	model, _ := newtonadmm.Train(ds, newtonadmm.Options{Ranks: 4, Lambda: 1e-5})
//	fmt.Println(model.TestAccuracy)
package newtonadmm

import (
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"time"

	"newtonadmm/internal/baselines"
	"newtonadmm/internal/cg"
	"newtonadmm/internal/cluster"
	"newtonadmm/internal/core"
	"newtonadmm/internal/datasets"
	"newtonadmm/internal/device"
	"newtonadmm/internal/dist"
	"newtonadmm/internal/linesearch"
	"newtonadmm/internal/loss"
	"newtonadmm/internal/newton"
)

// Dataset is an in-memory classification dataset (dense or sparse
// features, train/test split).
type Dataset struct {
	inner *datasets.Dataset
}

// DatasetOptions configures synthetic dataset generation (a planted
// softmax model; see internal/datasets for the knobs' semantics).
type DatasetOptions struct {
	Name                 string
	Samples, TestSamples int
	Features, Classes    int
	Seed                 int64
	// Sparsity in (0,1) stores features as CSR at that density.
	Sparsity float64
	// Decay controls Hessian conditioning (0 = well conditioned).
	Decay float64
	// Noise is the label temperature, Separation the planted signal
	// strength.
	Noise, Separation float64
}

// GenerateDataset builds a synthetic dataset.
func GenerateDataset(opts DatasetOptions) (*Dataset, error) {
	ds, err := datasets.Generate(datasets.Config{
		Name: opts.Name, Samples: opts.Samples, TestSamples: opts.TestSamples,
		Features: opts.Features, Classes: opts.Classes, Seed: opts.Seed,
		Sparsity: opts.Sparsity, Decay: opts.Decay,
		Noise: opts.Noise, Separation: opts.Separation,
	})
	if err != nil {
		return nil, err
	}
	return &Dataset{inner: ds}, nil
}

// PresetDataset builds one of the paper's Table 1 analogues: "higgs",
// "mnist", "cifar", or "e18". scale multiplies the default sample counts
// (scale <= 0 selects 1).
func PresetDataset(name string, scale float64) (*Dataset, error) {
	cfg, ok := datasets.PresetByName(name, scale)
	if !ok {
		return nil, fmt.Errorf("newtonadmm: unknown preset %q (want higgs, mnist, cifar, or e18)", name)
	}
	ds, err := datasets.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return &Dataset{inner: ds}, nil
}

// LoadLIBSVM reads a LIBSVM/SVMLight file as the training set. testFile
// may be empty for no test split.
func LoadLIBSVM(trainFile, testFile string) (*Dataset, error) {
	f, err := os.Open(trainFile)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	x, y, classes, err := datasets.ReadLIBSVM(f)
	if err != nil {
		return nil, fmt.Errorf("newtonadmm: %s: %w", trainFile, err)
	}
	ds := &datasets.Dataset{
		Name: trainFile, Classes: classes, Xtrain: x, Ytrain: y,
	}
	if testFile != "" {
		tf, err := os.Open(testFile)
		if err != nil {
			return nil, err
		}
		defer tf.Close()
		xt, yt, tClasses, err := datasets.ReadLIBSVM(tf)
		if err != nil {
			return nil, fmt.Errorf("newtonadmm: %s: %w", testFile, err)
		}
		if tClasses > classes {
			ds.Classes = tClasses
		}
		if xt.Cols() != x.Cols() {
			return nil, fmt.Errorf("newtonadmm: train has %d features, test has %d", x.Cols(), xt.Cols())
		}
		ds.Xtest, ds.Ytest = xt, yt
	}
	return &Dataset{inner: ds}, nil
}

// Name returns the dataset name.
func (d *Dataset) Name() string { return d.inner.Name }

// Classes returns the class count.
func (d *Dataset) Classes() int { return d.inner.Classes }

// Features returns the raw feature dimension.
func (d *Dataset) Features() int { return d.inner.NumFeatures() }

// TrainSize returns the training sample count.
func (d *Dataset) TrainSize() int { return d.inner.TrainSize() }

// TestSize returns the test sample count.
func (d *Dataset) TestSize() int { return d.inner.TestSize() }

// Solver names accepted by Options.Solver.
const (
	SolverNewtonADMM  = "newton-admm"
	SolverGIANT       = "giant"
	SolverInexactDANE = "inexact-dane"
	SolverAIDE        = "aide"
	SolverDiSCO       = "disco"
	SolverSyncSGD     = "sync-sgd"
	SolverNewton      = "newton" // single-node reference
)

// Options configures Train.
type Options struct {
	// Solver is one of the Solver* constants; "" selects Newton-ADMM.
	Solver string
	// Ranks is the simulated node count; <= 0 selects 4. The "newton"
	// reference always runs on one.
	Ranks int
	// Epochs is the outer-iteration budget; <= 0 uses each solver's
	// paper default.
	Epochs int
	// Lambda is the L2 regularization strength (paper default 1e-5
	// when zero).
	Lambda float64
	// Network names the interconnect model: "infiniband" (default),
	// "10g", "1g", "wan", or "none".
	Network string
	// UseTCP runs the cluster over real loopback TCP sockets.
	UseTCP bool
	// CGIters / CGTol configure the inner CG solver of the Newton-type
	// methods (paper: 10 iterations at 1e-4).
	CGIters int
	CGTol   float64
	// PenaltyPolicy selects Newton-ADMM's penalty adaptation:
	// "spectral" (default), "residual-balancing", or "fixed".
	PenaltyPolicy string
	// Jacobi enables diagonal preconditioning of the Newton-type CG
	// solves (optional optimization beyond the paper).
	Jacobi bool
	// BatchSize / StepSize configure SGD (and the SVRG inner solver);
	// Momentum in [0,1) enables heavy-ball SGD.
	BatchSize int
	StepSize  float64
	Momentum  float64
	// Tau is AIDE's catalyst weight.
	Tau float64
	// Seed drives the stochastic solvers.
	Seed int64
	// EvalTestAccuracy measures test accuracy along the trace.
	EvalTestAccuracy bool
	// CheckpointDir enables crash-safe checkpointing: an atomic,
	// CRC-checked snapshot of the full solver state every CheckpointEvery
	// epochs (see internal/ckpt), every solver alike; the directory keeps
	// the newest two.
	CheckpointDir string
	// CheckpointEvery is the snapshot period in epochs; <= 0 selects 1
	// when CheckpointDir is set.
	CheckpointEvery int
	// Resume continues from the latest good checkpoint in CheckpointDir;
	// the resumed run is bitwise-identical to an uninterrupted one. A
	// checkpoint from a different solver/dataset/config is rejected, and
	// so is Resume without a CheckpointDir.
	Resume bool
	// MaxRestarts bounds automatic restart-from-latest-checkpoint when
	// training fails with a communication error (crashed or hung rank);
	// without a CheckpointDir a restart retries from epoch 0.
	MaxRestarts int
	// CollectiveTimeout bounds every blocking collective wait so a hung
	// rank surfaces as a typed error instead of wedging the run; zero
	// disables deadlines.
	CollectiveTimeout time.Duration
}

// TracePoint is one epoch of convergence history.
type TracePoint struct {
	Epoch        int
	Seconds      float64 // virtual time
	Objective    float64
	TestAccuracy float64 // NaN when not measured
}

// Model is a trained multiclass linear classifier.
type Model struct {
	// Weights holds (Classes-1) blocks of Features coefficients, one
	// block per class (class-major); the last class is the zero-weight
	// reference.
	Weights  []float64
	Classes  int
	Features int
	Solver   string
	// Ranks is the node count the training run used (the "newton"
	// reference runs on one whatever Options.Ranks asked for).
	Ranks int
	// Trace is the recorded convergence history.
	Trace []TracePoint
	// TestAccuracy is the final test accuracy (NaN when not measured).
	TestAccuracy float64
	// TotalTime and AvgEpochTime are virtual (modeled) times.
	TotalTime, AvgEpochTime time.Duration
	// FailedEpoch is the outer iteration in flight when a failed run went
	// down (0 for successful runs). Train returns a partial Model with
	// the trace recorded so far alongside the error, so callers can flush
	// the convergence history instead of discarding it.
	FailedEpoch int
}

// NetworkByName resolves an interconnect model name.
func NetworkByName(name string) (cluster.NetworkModel, error) {
	switch name {
	case "", "infiniband", "infiniband-100g":
		return cluster.InfiniBand100G, nil
	case "10g", "ethernet-10g":
		return cluster.Ethernet10G, nil
	case "1g", "ethernet-1g":
		return cluster.Ethernet1G, nil
	case "wan":
		return cluster.WAN, nil
	case "none", "zero", "zero-cost":
		return cluster.ZeroCost, nil
	}
	return cluster.NetworkModel{}, fmt.Errorf("newtonadmm: unknown network %q", name)
}

func (o Options) withDefaults() Options {
	if o.Solver == "" {
		o.Solver = SolverNewtonADMM
	}
	if o.Ranks <= 0 {
		o.Ranks = 4
	}
	if o.Lambda == 0 {
		o.Lambda = 1e-5
	}
	if o.CGIters <= 0 {
		o.CGIters = 10
	}
	if o.CGTol <= 0 {
		o.CGTol = 1e-4
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 128
	}
	return o
}

// solvers maps each solver name to its stepper builder; the run control
// never passes through here (Train hands it to dist.Run).
var solvers = map[string]func(o Options) dist.Solver{
	SolverNewtonADMM: func(o Options) dist.Solver {
		return core.Solver(core.Options{
			Penalty: o.PenaltyPolicy, CG: o.cg(), Jacobi: o.Jacobi,
			LineSearch: linesearch.Options{MaxIters: 10},
		}, nil)
	},
	SolverGIANT: func(o Options) dist.Solver {
		return baselines.GIANT(baselines.GiantOptions{CG: o.cg(), LineSearch: linesearch.Options{MaxIters: 10}})
	},
	SolverInexactDANE: func(o Options) dist.Solver { return baselines.InexactDANE(o.dane()) },
	SolverAIDE: func(o Options) dist.Solver {
		return baselines.AIDE(baselines.AIDEOptions{DANE: o.dane(), Tau: o.Tau})
	},
	SolverDiSCO: func(o Options) dist.Solver {
		return baselines.DiSCO(baselines.DiSCOOptions{PCGIters: o.CGIters, PCGTol: o.CGTol})
	},
	SolverNewton: func(o Options) dist.Solver {
		return baselines.Newton(newton.Options{
			GradTol: 1e-8, CG: o.cg(), LineSearch: linesearch.Options{MaxIters: 10},
		}, nil)
	},
	SolverSyncSGD: func(o Options) dist.Solver {
		return baselines.SyncSGD(baselines.SGDOptions{
			BatchSize: o.BatchSize, Step: o.StepSize, Momentum: o.Momentum, Seed: o.Seed,
		})
	},
}

func (o Options) cg() cg.Options { return cg.Options{MaxIters: o.CGIters, RelTol: o.CGTol} }

func (o Options) dane() baselines.DANEOptions {
	return baselines.DANEOptions{
		Eta: 1, Seed: o.Seed,
		SVRG: baselines.SVRGOptions{Step: o.StepSize, BatchSize: o.BatchSize},
	}
}

// Train fits a softmax classifier on ds with the selected solver. On a
// failed distributed run it returns the partial Model (trace so far,
// FailedEpoch) together with the error.
func Train(ds *Dataset, opts Options) (*Model, error) {
	if ds == nil || ds.inner == nil {
		return nil, fmt.Errorf("newtonadmm: nil dataset")
	}
	opts = opts.withDefaults()
	net, err := NetworkByName(opts.Network)
	if err != nil {
		return nil, err
	}
	build, ok := solvers[opts.Solver]
	if !ok {
		return nil, fmt.Errorf("newtonadmm: unknown solver %q", opts.Solver)
	}
	if opts.Solver == SolverNewton {
		opts.Ranks = 1 // the single-node reference
	}
	res, err := dist.Run(cluster.Config{
		Ranks: opts.Ranks, Network: net, UseTCP: opts.UseTCP,
		CollectiveTimeout: opts.CollectiveTimeout,
	}, ds.inner, dist.RunOptions{
		Epochs: opts.Epochs, Lambda: opts.Lambda,
		EvalTestAccuracy: opts.EvalTestAccuracy,
		CheckpointDir:    opts.CheckpointDir, CheckpointEvery: opts.CheckpointEvery,
		Resume: opts.Resume, MaxRestarts: opts.MaxRestarts,
	}, build(opts))
	if res == nil {
		return nil, err
	}
	return buildModel(ds, opts, res.X, res.Trace, res.TestAccuracy, res.FailedEpoch), err
}

// buildModel assembles the public Model from a solver's outputs (also
// used for the partial model returned alongside a training error).
func buildModel(ds *Dataset, opts Options, weights []float64, trace dist.Trace, acc float64, failedEpoch int) *Model {
	m := &Model{
		Weights:      weights,
		Classes:      ds.inner.Classes,
		Features:     ds.inner.NumFeatures(),
		Solver:       opts.Solver,
		Ranks:        opts.Ranks,
		TestAccuracy: acc,
		AvgEpochTime: trace.AvgEpochTime(),
		FailedEpoch:  failedEpoch,
	}
	for _, p := range trace.Points {
		m.Trace = append(m.Trace, TracePoint{
			Epoch: p.Epoch, Seconds: p.Time.Seconds(),
			Objective: p.Objective, TestAccuracy: p.TestAccuracy,
		})
	}
	if final, ok := trace.Final(); ok {
		m.TotalTime = final.Time
	}
	return m
}

// Predict classifies dense feature rows (one-shot; for repeated calls
// build a Predictor, and see Serve for the batching HTTP server).
func (m *Model) Predict(rows [][]float64) ([]int, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	p, err := m.NewPredictor(0)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	out := make([]int, len(rows))
	if err := p.Predict(rows, out); err != nil {
		return nil, fmt.Errorf("newtonadmm: %w", err)
	}
	return out, nil
}

// Evaluate returns train and test accuracy on ds (test is NaN without a
// test split).
func (m *Model) Evaluate(ds *Dataset) (train, test float64, err error) {
	dev := device.New("evaluate", 0)
	defer dev.Close()
	prob, err := loss.NewSoftmax(dev, ds.inner.Xtrain, ds.inner.Ytrain, m.Classes, 0)
	if err != nil {
		return 0, 0, err
	}
	train = prob.Accuracy(ds.inner.Xtrain, ds.inner.Ytrain, m.Weights)
	test = math.NaN()
	if ds.inner.Xtest != nil {
		test = prob.Accuracy(ds.inner.Xtest, ds.inner.Ytest, m.Weights)
	}
	return train, test, nil
}

// Save writes the model with encoding/gob.
func (m *Model) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return gob.NewEncoder(f).Encode(m)
}

// LoadModel reads a model written by Save.
func LoadModel(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var m Model
	if err := gob.NewDecoder(f).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}
