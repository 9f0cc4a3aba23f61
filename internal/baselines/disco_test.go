package baselines

import (
	"math"
	"testing"

	"newtonadmm/internal/cluster"
	"newtonadmm/internal/dist"
	"newtonadmm/internal/linalg"
)

func TestDiSCOConvergesNearOptimum(t *testing.T) {
	ds := testDataset(t)
	lambda := 1e-2 // self-concordant-friendly regularization
	fStar := optimum(t, ds, lambda)
	res, err := dist.Run(zeroNet, ds, dist.RunOptions{Epochs: 40, Lambda: lambda},
		DiSCO(DiSCOOptions{PCGIters: 20, PCGTol: 1e-6}))
	if err != nil {
		t.Fatal(err)
	}
	final, _ := res.Trace.Final()
	rel := (final.Objective - fStar) / math.Abs(fStar)
	if rel > 0.05 {
		t.Fatalf("DiSCO gap %v (F=%v, F*=%v)", rel, final.Objective, fStar)
	}
}

func TestDiSCOMonotoneDecrease(t *testing.T) {
	ds := testDataset(t)
	res, err := dist.Run(zeroNet, ds, dist.RunOptions{Epochs: 15, Lambda: 1e-2}, DiSCO(DiSCOOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	prev := math.Inf(1)
	for _, p := range res.Trace.Points {
		// Damped Newton on a convex objective: allow tiny numerical slack.
		if p.Objective > prev*(1+1e-9) {
			t.Fatalf("objective increased at epoch %d: %v -> %v", p.Epoch, prev, p.Objective)
		}
		prev = p.Objective
	}
}

func TestDiSCOCommunicationHeavierThanADMM(t *testing.T) {
	// DiSCO pays ~2 rounds per PCG iteration plus gradient and damping
	// rounds each epoch; with 10 PCG iterations that dwarfs Newton-ADMM's
	// 2 rounds per epoch. Structural check on the round counters.
	ds := testDataset(t)
	epochs := 5
	res, err := dist.Run(zeroNet, ds, dist.RunOptions{Epochs: epochs, Lambda: 1e-2},
		DiSCO(DiSCOOptions{PCGIters: 10, PCGTol: 1e-12}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats[0].Rounds < epochs*5 {
		t.Fatalf("DiSCO rounds %d suspiciously low", res.Stats[0].Rounds)
	}
}

func TestDiSCOTranportsAgree(t *testing.T) {
	ds := testDataset(t)
	run := dist.RunOptions{Epochs: 4, Lambda: 1e-2}
	a, err := dist.Run(zeroNet, ds, run, DiSCO(DiSCOOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	tcpCfg := zeroNet
	tcpCfg.UseTCP = true
	b, err := dist.Run(tcpCfg, ds, run, DiSCO(DiSCOOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.Dist2(a.X, b.X); d > 1e-12 {
		t.Fatalf("transports disagree: %v", d)
	}
}

func TestDiSCOSingleRank(t *testing.T) {
	ds := testDataset(t)
	res, err := dist.Run(cluster.Config{Ranks: 1, Network: cluster.ZeroCost, DeviceWorkers: 2},
		ds, dist.RunOptions{Epochs: 20, Lambda: 1e-2}, DiSCO(DiSCOOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	first := res.Trace.Points[0]
	last, _ := res.Trace.Final()
	if last.Objective >= first.Objective {
		t.Fatalf("no progress on single rank: %v -> %v", first.Objective, last.Objective)
	}
}

func TestSGDMomentumConverges(t *testing.T) {
	ds := testDataset(t)
	lambda := 1e-3
	fStar := optimum(t, ds, lambda)
	res, err := dist.Run(zeroNet, ds, dist.RunOptions{Epochs: 50, Lambda: lambda},
		SyncSGD(SGDOptions{BatchSize: 64, Step: 1, Momentum: 0.9, Seed: 5}))
	if err != nil {
		t.Fatal(err)
	}
	final, _ := res.Trace.Final()
	rel := (final.Objective - fStar) / math.Abs(fStar)
	if rel > 0.3 {
		t.Fatalf("momentum SGD gap %v", rel)
	}
}

func TestSGDMomentumZeroMatchesPlain(t *testing.T) {
	ds := testDataset(t)
	run := dist.RunOptions{Epochs: 3, Lambda: 1e-3}
	base := SGDOptions{BatchSize: 32, Step: 0.5, Seed: 6}
	a, err := dist.Run(zeroNet, ds, run, SyncSGD(base))
	if err != nil {
		t.Fatal(err)
	}
	withZero := base
	withZero.Momentum = 0
	b, err := dist.Run(zeroNet, ds, run, SyncSGD(withZero))
	if err != nil {
		t.Fatal(err)
	}
	if d := linalg.Dist2(a.X, b.X); d != 0 {
		t.Fatalf("momentum=0 changed the trajectory: %v", d)
	}
}

// TestDiSCOStepAllocatesNothing: DiSCO builds its PCG vectors, damped
// operator and CG workspace once per rank, so a warmed Newton step on a
// one-rank in-process node performs no heap allocation.
func TestDiSCOStepAllocatesNothing(t *testing.T) {
	ds := testDataset(t)
	_, err := cluster.Run(cluster.Config{Ranks: 1, Network: cluster.ZeroCost, DeviceWorkers: 1}, func(node *cluster.Node) error {
		local, err := dist.BuildLocal(node, ds, 1e-2, true)
		if err != nil {
			return err
		}
		st := DiSCO(DiSCOOptions{PCGIters: 5, PCGTol: 1e-12}).Build(node, local)
		epoch := 1
		if allocs := testing.AllocsPerRun(5, func() { st.Step(epoch); epoch++ }); allocs != 0 {
			t.Errorf("warmed DiSCO step: %v allocs, want 0", allocs)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
