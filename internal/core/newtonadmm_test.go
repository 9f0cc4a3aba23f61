package core

import (
	"math"
	"runtime"
	"testing"

	"newtonadmm/internal/ckpt"
	"newtonadmm/internal/cluster"
	"newtonadmm/internal/datasets"
	"newtonadmm/internal/device"
	"newtonadmm/internal/dist"
	"newtonadmm/internal/linalg"
	"newtonadmm/internal/loss"
	"newtonadmm/internal/newton"
)

func smallDataset(t *testing.T) *datasets.Dataset {
	t.Helper()
	ds, err := datasets.Generate(datasets.Config{
		Name: "core-test", Samples: 600, TestSamples: 200, Features: 12,
		Classes: 3, Seed: 90, Separation: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// singleNodeOptimum runs plain Newton to high precision for F(x*).
func singleNodeOptimum(t *testing.T, ds *datasets.Dataset, lambda float64) (w []float64, fStar float64) {
	t.Helper()
	dev := device.New("oracle", 4)
	defer dev.Close()
	prob, err := loss.NewSoftmax(dev, ds.Xtrain, ds.Ytrain, ds.Classes, lambda)
	if err != nil {
		t.Fatal(err)
	}
	w = make([]float64, prob.Dim())
	res := newton.Solve(prob, w, newton.Options{MaxIters: 200, GradTol: 1e-7})
	if !(res.Converged || res.GradNorm <= 1e-5) {
		t.Fatalf("oracle Newton did not converge: %+v", res)
	}
	return w, prob.Value(w)
}

func TestSolveReachesNearOptimum(t *testing.T) {
	ds := smallDataset(t)
	lambda := 1e-3
	_, fStar := singleNodeOptimum(t, ds, lambda)

	res, err := Solve(cluster.Config{Ranks: 4, Network: cluster.ZeroCost, DeviceWorkers: 1}, ds, Options{
		Epochs: 60, Lambda: lambda,
	})
	if err != nil {
		t.Fatal(err)
	}
	final, ok := res.Trace.Final()
	if !ok {
		t.Fatal("empty trace")
	}
	rel := (final.Objective - fStar) / math.Abs(fStar)
	if rel > 0.05 {
		t.Fatalf("relative gap %v after 60 epochs (F=%v, F*=%v)", rel, final.Objective, fStar)
	}
}

func TestSolveSingleRankMatchesNewton(t *testing.T) {
	// With one rank and no consensus pressure, Newton-ADMM should reach
	// essentially the single-node optimum.
	ds := smallDataset(t)
	lambda := 1e-2
	_, fStar := singleNodeOptimum(t, ds, lambda)
	res, err := Solve(cluster.Config{Ranks: 1, Network: cluster.ZeroCost, DeviceWorkers: 2}, ds, Options{
		Epochs: 40, Lambda: lambda, LocalNewtonIters: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	final, _ := res.Trace.Final()
	rel := (final.Objective - fStar) / math.Abs(fStar)
	if rel > 0.02 {
		t.Fatalf("single-rank gap %v", rel)
	}
}

func TestSolveObjectiveDecreases(t *testing.T) {
	ds := smallDataset(t)
	res, err := Solve(cluster.Config{Ranks: 2, Network: cluster.ZeroCost, DeviceWorkers: 1}, ds, Options{
		Epochs: 20, Lambda: 1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Trace.Points
	if len(pts) < 3 {
		t.Fatalf("too few trace points: %d", len(pts))
	}
	first, last := pts[0], pts[len(pts)-1]
	if last.Objective >= first.Objective {
		t.Fatalf("objective did not decrease: %v -> %v", first.Objective, last.Objective)
	}
}

func TestSolveConsensusResidualShrinks(t *testing.T) {
	ds := smallDataset(t)
	res, err := Solve(cluster.Config{Ranks: 4, Network: cluster.ZeroCost, DeviceWorkers: 1}, ds, Options{
		Epochs: 50, Lambda: 1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Scale-free check: primal residual small relative to ||z||.
	zNorm := linalg.Nrm2(res.Z)
	if zNorm == 0 {
		t.Fatal("zero consensus vector")
	}
	if res.PrimalResidual/zNorm > 0.05 {
		t.Fatalf("consensus not reached: ||r||/||z|| = %v", res.PrimalResidual/zNorm)
	}
}

func TestSolveTestAccuracyAboveChance(t *testing.T) {
	ds := smallDataset(t)
	res, err := dist.Run(cluster.Config{Ranks: 2, Network: cluster.ZeroCost, DeviceWorkers: 1}, ds, dist.RunOptions{
		Epochs: 40, Lambda: 1e-4, EvalTestAccuracy: true,
	}, Solver(Options{}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.TestAccuracy) {
		t.Fatal("test accuracy not measured")
	}
	if res.TestAccuracy < 0.55 { // chance = 1/3
		t.Fatalf("test accuracy %v", res.TestAccuracy)
	}
}

func TestSolvePenaltyPolicies(t *testing.T) {
	// All three policies must run and converge reasonably; rho must stay
	// positive and finite.
	ds := smallDataset(t)
	for _, policy := range []string{"spectral", "residual-balancing", "fixed"} {
		res, err := Solve(cluster.Config{Ranks: 3, Network: cluster.ZeroCost, DeviceWorkers: 1}, ds, Options{
			Epochs: 25, Lambda: 1e-3, Penalty: policy,
		})
		if err != nil {
			t.Fatalf("%s: %v", policy, err)
		}
		for r, rho := range res.FinalRhos {
			if !(rho > 0) || math.IsInf(rho, 0) {
				t.Fatalf("%s: rank %d rho=%v", policy, r, rho)
			}
		}
		first := res.Trace.Points[0]
		last, _ := res.Trace.Final()
		if last.Objective >= first.Objective {
			t.Fatalf("%s: no progress (%v -> %v)", policy, first.Objective, last.Objective)
		}
	}
}

func TestSolveCommunicationRoundsPerEpoch(t *testing.T) {
	// The headline property: one gather + one scatter per ADMM iteration
	// — exactly 2 collectives per epoch, independent of epochs' content.
	ds := smallDataset(t)
	epochs := 13
	res, err := Solve(cluster.Config{Ranks: 4, Network: cluster.ZeroCost, DeviceWorkers: 1}, ds, Options{
		Epochs: epochs, Lambda: 1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range res.Stats {
		if s.Rounds != 2*epochs {
			t.Fatalf("rank %d used %d collectives for %d epochs, want %d",
				s.Rank, s.Rounds, epochs, 2*epochs)
		}
	}
}

func TestSolveMessagesPerEpoch(t *testing.T) {
	// The clock stamp rides each payload, so the wire carries only the
	// algorithm's messages: per epoch a gather and a broadcast, plus the
	// recorder's evaluation all-reduce; then the epoch-0 evaluation and
	// Finish's all-reduce. A gather or a broadcast sends n-1 messages,
	// an all-reduce 2(n-1).
	ds := smallDataset(t)
	const epochs = 5
	for _, ranks := range []int{2, 4} {
		for _, useTCP := range []bool{false, true} {
			res, err := Solve(cluster.Config{Ranks: ranks, Network: cluster.ZeroCost, DeviceWorkers: 1, UseTCP: useTCP}, ds,
				Options{Epochs: epochs, Lambda: 1e-3})
			if err != nil {
				t.Fatal(err)
			}
			sent := 0
			for _, s := range res.Stats {
				sent += s.SentVecs
			}
			if want := (4*epochs + 4) * (ranks - 1); sent != want {
				t.Errorf("ranks=%d tcp=%v: %d messages for %d epochs, want %d", ranks, useTCP, sent, epochs, want)
			}
		}
	}
}

func TestSolveOverTCPMatchesInproc(t *testing.T) {
	// The algorithm is deterministic given the data and rank count, so
	// the in-process and TCP transports must produce identical iterates.
	ds := smallDataset(t)
	opts := Options{Epochs: 8, Lambda: 1e-3}
	a, err := Solve(cluster.Config{Ranks: 3, Network: cluster.ZeroCost, DeviceWorkers: 1}, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Solve(cluster.Config{Ranks: 3, Network: cluster.ZeroCost, DeviceWorkers: 1, UseTCP: true}, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.Dist2(a.Z, b.Z); d > 1e-12 {
		t.Fatalf("transports disagree: ||z_inproc - z_tcp|| = %v", d)
	}
}

func TestSolveMoreRanksStillConverges(t *testing.T) {
	ds := smallDataset(t)
	lambda := 1e-3
	_, fStar := singleNodeOptimum(t, ds, lambda)
	for _, ranks := range []int{2, 8} {
		res, err := Solve(cluster.Config{Ranks: ranks, Network: cluster.ZeroCost, DeviceWorkers: 1}, ds, Options{
			Epochs: 80, Lambda: lambda,
		})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		final, _ := res.Trace.Final()
		rel := (final.Objective - fStar) / math.Abs(fStar)
		if rel > 0.1 {
			t.Fatalf("ranks=%d: relative gap %v", ranks, rel)
		}
	}
}

// TestSparseSolveBitwisePin pins Newton-ADMM's final consensus on a small
// E18-like problem (CSR features, 20 classes) to the FNV-1a hash of its
// IEEE bits, with one, two and three device chunks per rank (three
// split a 200-row shard unevenly). A kernel change that moves any bit of
// the trajectory fails here. The constants are amd64's; the one- and
// two-chunk ones were recorded when the solver's weights became
// feature-major (whole-vector sums then add in p×m order), the
// three-chunk one on the row walk before shards were indexed by column.
func TestSparseSolveBitwisePin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hash constants are recorded on amd64")
	}
	ds, err := datasets.Generate(datasets.Config{
		Name: "e18-pin", Samples: 400, TestSamples: 16, Features: 600, Classes: 20,
		Seed: 104, Sparsity: 0.05, Decay: 0.4, Noise: 1.2, Separation: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		workers int
		want    uint64
	}{{1, 0xb33c0b0611174652}, {2, 0xfc9047582dd17d46}, {3, 0x4848135fb02049f}} {
		res, err := Solve(cluster.Config{Ranks: 2, Network: cluster.ZeroCost, DeviceWorkers: c.workers}, ds, Options{
			Epochs: 3, Lambda: 1e-3,
		})
		if err != nil {
			t.Fatal(err)
		}
		f := ckpt.NewFingerprinter()
		for _, v := range res.Z {
			f.Float(v)
		}
		if got := f.Sum(); got != c.want {
			t.Errorf("%d workers: hash(Z) = %#x, want %#x", c.workers, got, c.want)
		}
	}
}

// TestDenseSolveBitwisePin pins Newton-ADMM's final consensus on a small
// MNIST-like problem (784 features, 9 explicit classes, 203 rows a
// rank), as TestSparseSolveBitwisePin does for CSR data. Its shape runs
// the dense lanes' 8-class tiles, a masked one-class tail and row tails
// (203 is not a multiple of four). It runs on the path CPUID picks and on
// refFeatures, whose operand runs the class-major *Ref loops that both
// the lanes and the Go loops match bit for bit, so every path must carry
// these bits. The constants were recorded when the solver's weights
// became feature-major.
func TestDenseSolveBitwisePin(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("hash constants are recorded on amd64")
	}
	cfg := datasets.MNISTLike(0.05)
	cfg.Samples = 406
	ds, err := datasets.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dense := ds.Xtrain
	for _, path := range []struct {
		name string
		x    loss.Features
	}{{"cpuid", dense}, {"reference", refFeatures{dense.(loss.Dense)}}} {
		ds.Xtrain = path.x
		for _, c := range []struct {
			workers int
			want    uint64
		}{{1, 0x955b1f3fbe94f5ee}, {2, 0x4f8c6072df41f697}} {
			res, err := Solve(cluster.Config{Ranks: 2, Network: cluster.ZeroCost, DeviceWorkers: c.workers}, ds, Options{
				Epochs: 3, Lambda: 1e-3,
			})
			if err != nil {
				t.Fatal(err)
			}
			f := ckpt.NewFingerprinter()
			for _, v := range res.Z {
				f.Float(v)
			}
			if got := f.Sum(); got != c.want {
				t.Errorf("%s, %d workers: hash(Z) = %#x, want %#x", path.name, c.workers, got, c.want)
			}
		}
	}
}

// refFeatures is dense data whose operand runs the class-major reference
// loops, whatever the CPU, converting the feature-major W and G the
// device passes.
type refFeatures struct{ loss.Dense }

func (r refFeatures) Operand() device.Operand { return refOperand{r.M} }

func (r refFeatures) Subset(idx []int) loss.Features {
	return refFeatures{r.Dense.Subset(idx).(loss.Dense)}
}

func (r refFeatures) Range(lo, hi int) loss.Features {
	return refFeatures{r.Dense.Range(lo, hi).(loss.Dense)}
}

type refOperand struct{ *linalg.Matrix }

func (o refOperand) MulNTRange(w []float64, m int, s []float64, lo, hi int) {
	linalg.MulNTRangeRef(o.Matrix, loss.ToModel(nil, w, m), m, s, lo, hi)
}

// MulTNRange accumulates into g class-major and writes the sums back:
// each element still receives its rows' products in the reference order.
func (o refOperand) MulTNRange(d []float64, m int, g []float64, lo, hi int) {
	gc := loss.ToModel(nil, g, m)
	linalg.MulTNRangeRef(o.Matrix, d, m, gc, lo, hi)
	loss.FromModel(g, gc, m)
}

// DualResidual is global: every rank's spectral penalty enters it, as
// sqrt(sum_i rho_i^2) ||z - zPrev||. A run one epoch shorter ends at the
// longer run's zPrev.
func TestSolveDualResidualIsGlobal(t *testing.T) {
	ds := smallDataset(t)
	const k = 8
	cfg := cluster.Config{Ranks: 4, Network: cluster.ZeroCost, DeviceWorkers: 1}
	opts := Options{Epochs: k, Lambda: 1e-3, Penalty: "spectral"}
	res, err := Solve(cfg, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Epochs = k - 1
	prev, err := Solve(cfg, ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	var rhoSq float64
	for _, rho := range res.FinalRhos {
		rhoSq += rho * rho
	}
	if res.FinalRhos[0] == res.FinalRhos[1] {
		t.Fatalf("ranks share one penalty %v: the test cannot tell rank 0's residual from the global one", res.FinalRhos)
	}
	want := math.Sqrt(rhoSq) * linalg.Dist2(res.Z, prev.Z)
	if math.Abs(res.DualResidual-want) > 1e-12*want {
		t.Fatalf("DualResidual = %.17g, want sqrt(sum rho_i^2)·||z - zPrev|| = %.17g (rhos %v)", res.DualResidual, want, res.FinalRhos)
	}
}
