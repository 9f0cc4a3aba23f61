// Command nadmm-train trains a multiclass linear classifier with any of
// the reproduced solvers on a preset synthetic dataset or LIBSVM files.
//
// Examples:
//
//	nadmm-train -preset mnist -scale 0.5 -solver newton-admm -ranks 4
//	nadmm-train -train data/a9a -test data/a9a.t -solver giant -epochs 50
//	nadmm-train -preset higgs -solver sync-sgd -step 1 -batch 128
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"newtonadmm"
)

// printTrace writes the per-epoch convergence table.
func printTrace(trace []newtonadmm.TracePoint) {
	fmt.Println("epoch      time(s)      objective    test-acc")
	for _, p := range trace {
		acc := "      -"
		if !math.IsNaN(p.TestAccuracy) {
			acc = fmt.Sprintf("%7.4f", p.TestAccuracy)
		}
		fmt.Printf("%5d  %11.4f  %13.6g  %s\n", p.Epoch, p.Time.Seconds(), p.Objective, acc)
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("nadmm-train: ")

	var (
		preset   = flag.String("preset", "", "synthetic preset: higgs, mnist, cifar, e18")
		scale    = flag.Float64("scale", 1.0, "preset size multiplier")
		train    = flag.String("train", "", "LIBSVM training file (alternative to -preset)")
		test     = flag.String("test", "", "LIBSVM test file")
		solver   = flag.String("solver", "newton-admm", "newton-admm, giant, inexact-dane, aide, disco, sync-sgd, newton (single-node reference)")
		ranks    = flag.Int("ranks", 4, "simulated cluster size (newton always runs on 1)")
		epochs   = flag.Int("epochs", 0, "iteration budget (0 = solver default)")
		lambda   = flag.Float64("lambda", 1e-5, "L2 regularization strength")
		network  = flag.String("network", "infiniband", "interconnect model: infiniband, 10g, 1g, wan, none")
		useTCP   = flag.Bool("tcp", false, "run the cluster over real loopback TCP")
		cgIters  = flag.Int("cg", 10, "CG iterations for Newton-type solvers")
		cgTol    = flag.Float64("cgtol", 1e-4, "CG relative tolerance")
		penalty  = flag.String("penalty", "spectral", "ADMM penalty policy: spectral, residual-balancing, fixed")
		batch    = flag.Int("batch", 128, "mini-batch size (sgd, svrg)")
		step     = flag.Float64("step", 1, "step size (sgd, svrg)")
		momentum = flag.Float64("momentum", 0, "heavy-ball momentum for sync-sgd")
		tau      = flag.Float64("tau", 1, "AIDE catalyst weight")
		seed     = flag.Int64("seed", 0, "random seed for stochastic solvers")
		save     = flag.String("save", "", "write the trained model file (a CRC-checked snapshot nadmm-serve -model reads) to this path; its directory must exist")
		quiet    = flag.Bool("quiet", false, "suppress the per-epoch trace")

		ckptDir     = flag.String("checkpoint-dir", "", "write crash-safe checkpoints to this directory, newest two kept (every solver, newton included)")
		ckptEvery   = flag.Int("checkpoint-every", 1, "snapshot period in epochs when -checkpoint-dir is set")
		resume      = flag.Bool("resume", false, "resume from the latest good checkpoint in -checkpoint-dir")
		maxRestarts = flag.Int("max-restarts", 0, "automatic restarts from the latest checkpoint on comm failure")
		collTimeout = flag.Duration("collective-timeout", 0, "deadline for every blocking collective wait (0 = none)")
	)
	flag.Parse()
	if *resume && *ckptDir == "" {
		fmt.Fprintln(os.Stderr, "nadmm-train: -resume needs -checkpoint-dir")
		os.Exit(2)
	}
	// A missing -save directory would only surface after the whole run.
	if *save != "" {
		dir := filepath.Dir(*save)
		if st, err := os.Stat(dir); err != nil || !st.IsDir() {
			fmt.Fprintf(os.Stderr, "nadmm-train: -save directory %s does not exist\n", dir)
			os.Exit(2)
		}
	}

	var (
		ds  *newtonadmm.Dataset
		err error
	)
	switch {
	case *preset != "":
		ds, err = newtonadmm.PresetDataset(*preset, *scale)
	case *train != "":
		ds, err = newtonadmm.LoadLIBSVM(*train, *test)
	default:
		fmt.Fprintln(os.Stderr, "need -preset or -train; see -h")
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset %s: %d train / %d test, %d features, %d classes\n",
		ds.Name(), ds.TrainSize(), ds.TestSize(), ds.Features(), ds.Classes())

	model, err := newtonadmm.Train(ds, newtonadmm.Options{
		Solver: *solver, Ranks: *ranks, Epochs: *epochs, Lambda: *lambda,
		Network: *network, UseTCP: *useTCP,
		CGIters: *cgIters, CGTol: *cgTol, PenaltyPolicy: *penalty,
		BatchSize: *batch, StepSize: *step, Momentum: *momentum, Tau: *tau, Seed: *seed,
		EvalTestAccuracy: true,
		CheckpointDir:    *ckptDir, CheckpointEvery: *ckptEvery, Resume: *resume,
		MaxRestarts: *maxRestarts, CollectiveTimeout: *collTimeout,
	})
	if err != nil {
		// Flush whatever converged before the failure instead of discarding
		// it; the exit code still reports the run as failed.
		if model != nil && len(model.Trace) > 0 && !*quiet {
			printTrace(model.Trace)
		}
		if model != nil && model.FailedEpoch > 0 {
			fmt.Fprintf(os.Stderr, "nadmm-train: training failed at iteration %d\n", model.FailedEpoch)
		}
		log.Print(err)
		os.Exit(1)
	}

	if !*quiet {
		printTrace(model.Trace)
	}
	fmt.Printf("solver=%s ranks=%d total=%v avg-epoch=%v\n",
		model.Solver, model.Ranks, model.TotalTime, model.AvgEpochTime)
	if n := len(model.Trace); n > 0 {
		fmt.Printf("final objective: %.17g\n", model.Trace[n-1].Objective)
	}
	if !math.IsNaN(model.TestAccuracy) {
		fmt.Printf("final test accuracy: %.4f\n", model.TestAccuracy)
	}
	if *save != "" {
		if err := model.Save(*save); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("model written to %s\n", *save)
	}
}
