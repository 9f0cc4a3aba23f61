package cluster

import (
	"testing"
	"time"
)

func TestFrozenRestoresAccounting(t *testing.T) {
	model := NetworkModel{Name: "lat", Latency: time.Millisecond, Bandwidth: 1e12}
	stats, err := Run(Config{Ranks: 3, Network: model, DeviceWorkers: 1}, func(n *Node) error {
		n.AllReduceSum(nil) // sync point
		before := n.Clock()
		rounds, comm := n.Rounds(), n.CommTime()
		n.Frozen(func() {
			// Expensive instrumentation: several collectives.
			for i := 0; i < 5; i++ {
				v := []float64{1}
				n.AllReduceSum(v)
			}
		})
		// The clock may advance by the (sub-ms) compute between the
		// sync point and Frozen, but none of the 5 frozen allreduces'
		// modeled cost (5 * 2ms of latency alone) may leak.
		if drift := n.Clock() - before; drift > time.Millisecond {
			t.Errorf("clock leaked: %v -> %v", before, n.Clock())
		}
		if n.Rounds() != rounds || n.CommTime() != comm {
			t.Errorf("rounds/comm leaked: %d/%v -> %d/%v", rounds, comm, n.Rounds(), n.CommTime())
		}
		// Work after Frozen must be accounted again.
		n.AllReduceSum(nil)
		if n.Rounds() != rounds+1 {
			t.Errorf("post-Frozen collective not counted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range stats {
		// The 2 empty allreduces only.
		if s.Rounds != 2 {
			t.Fatalf("rank %d rounds=%d, want 2", s.Rank, s.Rounds)
		}
	}
}

func TestNodeAccessors(t *testing.T) {
	model := Ethernet10G
	_, err := Run(Config{Ranks: 2, Network: model, DeviceWorkers: 1}, func(n *Node) error {
		if n.Size() != 2 {
			t.Errorf("Size=%d", n.Size())
		}
		if n.Rank() < 0 || n.Rank() >= 2 {
			t.Errorf("Rank=%d", n.Rank())
		}
		if n.Model() != model {
			t.Errorf("Model=%v", n.Model())
		}
		if n.Dev == nil {
			t.Error("nil device")
		}
		if n.ComputeTime() < 0 || n.CommTime() < 0 {
			t.Error("negative accounting")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestStatsPopulatedAfterRun(t *testing.T) {
	stats, err := Run(Config{Ranks: 4, Network: InfiniBand100G, DeviceWorkers: 1}, func(n *Node) error {
		v := make([]float64, 100)
		n.AllReduceSum(v)
		n.Dev.ParallelFor(1000, 0, func(lo, hi int) {})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 4 {
		t.Fatalf("stats for %d ranks", len(stats))
	}
	for r, s := range stats {
		if s.Rank != r {
			t.Fatalf("stats[%d].Rank=%d", r, s.Rank)
		}
		if s.Rounds != 1 {
			t.Fatalf("rank %d rounds=%d", r, s.Rounds)
		}
		if s.DevStats.Launches == 0 {
			t.Fatalf("rank %d device launches not recorded", r)
		}
		if s.SentVecs == 0 && r != 0 {
			t.Fatalf("rank %d sent nothing", r)
		}
	}
}
