package baselines

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"newtonadmm/internal/cg"
	"newtonadmm/internal/cluster"
	"newtonadmm/internal/datasets"
	"newtonadmm/internal/device"
	"newtonadmm/internal/dist"
	"newtonadmm/internal/faultinject"
	"newtonadmm/internal/linalg"
	"newtonadmm/internal/loss"
	"newtonadmm/internal/newton"
)

func testDataset(t *testing.T) *datasets.Dataset {
	t.Helper()
	ds, err := datasets.Generate(datasets.Config{
		Name: "baseline-test", Samples: 500, TestSamples: 150, Features: 10,
		Classes: 3, Seed: 80, Separation: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func optimum(t *testing.T, ds *datasets.Dataset, lambda float64) float64 {
	t.Helper()
	dev := device.New("oracle", 4)
	defer dev.Close()
	prob, err := loss.NewSoftmax(dev, ds.Xtrain, ds.Ytrain, ds.Classes, lambda)
	if err != nil {
		t.Fatal(err)
	}
	w := make([]float64, prob.Dim())
	newton.Solve(prob, w, newton.Options{MaxIters: 200, GradTol: 1e-7})
	return prob.Value(w)
}

var zeroNet = cluster.Config{Ranks: 3, Network: cluster.ZeroCost, DeviceWorkers: 1}

func TestGIANTConvergesNearOptimum(t *testing.T) {
	ds := testDataset(t)
	lambda := 1e-3
	fStar := optimum(t, ds, lambda)
	res, err := SolveGIANT(zeroNet, ds, GiantOptions{Epochs: 30, Lambda: lambda})
	if err != nil {
		t.Fatal(err)
	}
	final, _ := res.Trace.Final()
	rel := (final.Objective - fStar) / math.Abs(fStar)
	if rel > 0.02 {
		t.Fatalf("GIANT gap %v (F=%v, F*=%v)", rel, final.Objective, fStar)
	}
}

func TestGIANTSingleRankIsNewton(t *testing.T) {
	// With one rank the local Hessian IS the global Hessian, so GIANT
	// must behave like plain Newton-CG: fast, monotone convergence.
	ds := testDataset(t)
	lambda := 1e-2
	fStar := optimum(t, ds, lambda)
	res, err := SolveGIANT(cluster.Config{Ranks: 1, Network: cluster.ZeroCost, DeviceWorkers: 2}, ds,
		GiantOptions{Epochs: 20, Lambda: lambda})
	if err != nil {
		t.Fatal(err)
	}
	final, _ := res.Trace.Final()
	if rel := (final.Objective - fStar) / math.Abs(fStar); rel > 0.01 {
		t.Fatalf("single-rank GIANT gap %v", rel)
	}
}

func TestGIANTCommunicationRoundsPerEpoch(t *testing.T) {
	// The paper's count: three collectives per iteration (gradient,
	// direction, line search).
	ds := testDataset(t)
	epochs := 7
	res, err := SolveGIANT(zeroNet, ds, GiantOptions{Epochs: epochs, Lambda: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Stats {
		if s.Rounds != 3*epochs {
			t.Fatalf("rank %d used %d collectives, want %d", s.Rank, s.Rounds, 3*epochs)
		}
	}
}

func TestGIANTMonotoneObjective(t *testing.T) {
	// The second input is Figure 1's quick cell, where no candidate step of
	// epoch 2 meets Armijo and every one of them raises the objective.
	mnist, err := datasets.Generate(datasets.MNISTLike(0.05))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		ds    *datasets.Dataset
		ranks int
		opts  GiantOptions
	}{
		{testDataset(t), 3, GiantOptions{Epochs: 15, Lambda: 1e-3}},
		{mnist, 4, GiantOptions{Epochs: 3, Lambda: 1e-5, CG: cg.Options{MaxIters: 10, RelTol: 1e-4}}},
	}
	for _, c := range cases {
		res, err := SolveGIANT(cluster.Config{Ranks: c.ranks, Network: cluster.ZeroCost, DeviceWorkers: 1}, c.ds, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		prev := math.Inf(1)
		for _, p := range res.Trace.Points {
			if p.Objective > prev+1e-9 {
				t.Fatalf("%s: objective increased at epoch %d: %v -> %v", c.ds.Name, p.Epoch, prev, p.Objective)
			}
			prev = p.Objective
		}
	}
}

func TestInexactDANEMakesProgress(t *testing.T) {
	ds := testDataset(t)
	lambda := 1e-3
	res, err := dist.Run(zeroNet, ds, dist.RunOptions{Epochs: 5, Lambda: lambda},
		InexactDANE(DANEOptions{Seed: 1, SVRG: SVRGOptions{Step: 1, Snapshots: 2}}))
	if err != nil {
		t.Fatal(err)
	}
	first := res.Trace.Points[0]
	last, _ := res.Trace.Final()
	if last.Objective >= 0.9*first.Objective {
		t.Fatalf("InexactDANE barely moved: %v -> %v", first.Objective, last.Objective)
	}
}

func TestAIDEMakesProgress(t *testing.T) {
	ds := testDataset(t)
	res, err := dist.Run(zeroNet, ds, dist.RunOptions{Epochs: 5, Lambda: 1e-3}, AIDE(AIDEOptions{
		DANE: DANEOptions{Seed: 2, SVRG: SVRGOptions{Step: 1, Snapshots: 2}},
		Tau:  0.1,
	}))
	if err != nil {
		t.Fatal(err)
	}
	first := res.Trace.Points[0]
	last, _ := res.Trace.Final()
	if last.Objective >= 0.9*first.Objective {
		t.Fatalf("AIDE barely moved: %v -> %v", first.Objective, last.Objective)
	}
}

func TestSyncSGDConverges(t *testing.T) {
	ds := testDataset(t)
	lambda := 1e-3
	fStar := optimum(t, ds, lambda)
	res, err := dist.Run(zeroNet, ds, dist.RunOptions{Epochs: 60, Lambda: lambda},
		SyncSGD(SGDOptions{BatchSize: 64, Step: 2, Seed: 3}))
	if err != nil {
		t.Fatal(err)
	}
	final, _ := res.Trace.Final()
	rel := (final.Objective - fStar) / math.Abs(fStar)
	if rel > 0.2 {
		t.Fatalf("SGD gap %v (F=%v, F*=%v)", rel, final.Objective, fStar)
	}
}

// A failed baseline run keeps its history: the driver returns the partial
// result (trace so far, failed-at epoch) beside the typed error.
func TestSyncSGDCrashKeepsPartialTrace(t *testing.T) {
	ds := testDataset(t)
	ccfg := zeroNet
	ccfg.CollectiveTimeout = 10 * time.Second
	ccfg.WrapTransport = func(rank int, tr cluster.Transport) cluster.Transport {
		if rank != 1 {
			return tr
		}
		f := faultinject.WrapTransport(tr)
		f.CrashAfter(40) // a few epochs in
		return f
	}
	res, err := dist.Run(ccfg, ds, dist.RunOptions{Epochs: 20, Lambda: 1e-3}, SyncSGD(SGDOptions{BatchSize: 64, Step: 0.5, Seed: 4}))
	if !cluster.IsCommError(err) {
		t.Fatalf("crash not surfaced as a typed comm error: %v", err)
	}
	if res == nil || res.FailedEpoch <= 0 || len(res.Trace.Points) == 0 {
		t.Fatalf("partial result lost: %+v", res)
	}
}

func TestSyncSGDRoundsScaleWithBatches(t *testing.T) {
	// One allreduce per mini-batch step: rounds per epoch =
	// ceil(n_local / batch), plus the max-agreement round at setup.
	ds := testDataset(t)
	epochs := 3
	batch := 64
	res, err := dist.Run(zeroNet, ds, dist.RunOptions{Epochs: epochs, Lambda: 1e-3},
		SyncSGD(SGDOptions{BatchSize: batch, Step: 0.5, Seed: 4}))
	if err != nil {
		t.Fatal(err)
	}
	nLocal := (500 + 2) / 3 // ceil for the largest shard
	steps := (nLocal + batch - 1) / batch
	want := epochs*steps + 1
	for _, s := range res.Stats {
		if s.Rounds != want {
			t.Fatalf("rank %d rounds=%d, want %d", s.Rank, s.Rounds, want)
		}
	}
}

func TestSGDManyMoreRoundsThanGIANT(t *testing.T) {
	// The communication-structure claim behind Figure 4, checked
	// structurally: SGD needs far more collectives per epoch.
	ds := testDataset(t)
	sgd, err := dist.Run(zeroNet, ds, dist.RunOptions{Epochs: 5, Lambda: 1e-3}, SyncSGD(SGDOptions{BatchSize: 16, Step: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	giant, err := SolveGIANT(zeroNet, ds, GiantOptions{Epochs: 5, Lambda: 1e-3})
	if err != nil {
		t.Fatal(err)
	}
	if sgd.Stats[0].Rounds <= 2*giant.Stats[0].Rounds {
		t.Fatalf("SGD rounds %d not dominating GIANT rounds %d",
			sgd.Stats[0].Rounds, giant.Stats[0].Rounds)
	}
}

func TestSVRGSolveReducesQuadraticObjective(t *testing.T) {
	// phi(x) = f(x) + <c,x> + a/2||x||^2 with a strongly convex softmax:
	// SVRG from 0 must reduce phi.
	ds := testDataset(t)
	dev := device.New("svrg-test", 2)
	defer dev.Close()
	prob, err := loss.NewSoftmax(dev, ds.Xtrain, ds.Ytrain, ds.Classes, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	dim := prob.Dim()
	c := make([]float64, dim)
	for i := range c {
		c[i] = 0.01 * float64(i%5)
	}
	phi := func(x []float64) float64 {
		nrm := linalg.Nrm2(x)
		return prob.Value(x) + linalg.Dot(c, x) + 0.5*0.1*nrm*nrm
	}
	x := make([]float64, dim)
	before := phi(x)
	rng := rand.New(rand.NewSource(5))
	SVRGSolve(prob, c, 0.1, 0, linalg.Clone(x), x, SVRGOptions{Step: 1, Snapshots: 2}, rng)
	after := phi(x)
	if after >= before {
		t.Fatalf("SVRG did not reduce the subproblem: %v -> %v", before, after)
	}
	if !linalg.AllFinite(x) {
		t.Fatal("SVRG produced non-finite iterate")
	}
}

func TestSVRGDivergenceGuard(t *testing.T) {
	ds := testDataset(t)
	dev := device.New("svrg-test", 2)
	defer dev.Close()
	prob, err := loss.NewSoftmax(dev, ds.Xtrain, ds.Ytrain, ds.Classes, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	dim := prob.Dim()
	x := make([]float64, dim)
	rng := rand.New(rand.NewSource(6))
	// Absurd step size: guard must keep the iterate finite.
	SVRGSolve(prob, make([]float64, dim), 0, 0, make([]float64, dim), x,
		SVRGOptions{Step: 1e12, Snapshots: 1}, rng)
	if !linalg.AllFinite(x) {
		t.Fatal("divergence guard failed")
	}
}

func TestSVRGRestoresL2(t *testing.T) {
	ds := testDataset(t)
	dev := device.New("svrg-test", 2)
	defer dev.Close()
	prob, err := loss.NewSoftmax(dev, ds.Xtrain, ds.Ytrain, ds.Classes, 0.25)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, prob.Dim())
	rng := rand.New(rand.NewSource(7))
	SVRGSolve(prob, make([]float64, prob.Dim()), 0, 0, make([]float64, prob.Dim()), x,
		SVRGOptions{Step: 0.5, Snapshots: 1, StepsPerSnapshot: 5}, rng)
	if prob.L2 != 0.25 {
		t.Fatalf("SVRGSolve did not restore L2: %v", prob.L2)
	}
}

func TestBaselinesDeterministicWithSeed(t *testing.T) {
	ds := testDataset(t)
	run := dist.RunOptions{Epochs: 3, Lambda: 1e-3}
	opts := SGDOptions{BatchSize: 32, Step: 0.5, Seed: 11}
	a, err := dist.Run(zeroNet, ds, run, SyncSGD(opts))
	if err != nil {
		t.Fatal(err)
	}
	b, err := dist.Run(zeroNet, ds, run, SyncSGD(opts))
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.Dist2(a.X, b.X); d != 0 {
		t.Fatalf("same seed produced different iterates: %v", d)
	}
}
