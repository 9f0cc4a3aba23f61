package sim

import (
	"math/rand"
	"testing"
	"time"

	"newtonadmm/internal/cluster"
	"newtonadmm/internal/control"
)

func TestClockRunsEventsInTimeThenInsertionOrder(t *testing.T) {
	c := NewClock()
	var got []int
	c.At(20*time.Millisecond, func() { got = append(got, 3) })
	c.At(10*time.Millisecond, func() { got = append(got, 1) })
	c.At(10*time.Millisecond, func() { got = append(got, 2) }) // tie: insertion order
	c.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("event order = %v, want [1 2 3]", got)
	}
	if c.VNow() != 20*time.Millisecond {
		t.Errorf("final VNow = %v, want 20ms", c.VNow())
	}
	if c.Now() != Epoch.Add(20*time.Millisecond) {
		t.Errorf("Now = %v, want Epoch+20ms", c.Now())
	}
}

func TestClockClampsPastAndChainsEvents(t *testing.T) {
	c := NewClock()
	var got []string
	c.At(10*time.Millisecond, func() {
		got = append(got, "a")
		// Scheduling before now clamps to now and still runs.
		c.At(5*time.Millisecond, func() { got = append(got, "clamped") })
		c.After(5*time.Millisecond, func() { got = append(got, "b") })
	})
	c.Run()
	if len(got) != 3 || got[0] != "a" || got[1] != "clamped" || got[2] != "b" {
		t.Errorf("events = %v, want [a clamped b]", got)
	}
	if c.Pending() != 0 {
		t.Errorf("pending = %d after Run, want 0", c.Pending())
	}
}

func TestArrivalProcesses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if got := (Constant{Every: time.Millisecond}).Next(rng, 0); got != time.Millisecond {
		t.Errorf("Constant.Next = %v, want 1ms", got)
	}

	d := Diurnal{Base: 100, Peak: 1100, Period: 24 * time.Hour}
	if r := d.Rate(0); r != 100 {
		t.Errorf("diurnal trough rate = %v, want 100", r)
	}
	if r := d.Rate(12 * time.Hour); r < 1099.999 || r > 1100.001 {
		t.Errorf("diurnal crest rate = %v, want 1100", r)
	}

	b := Burst{BaseRate: 10, BurstRate: 1000, Interval: time.Second, Length: 100 * time.Millisecond}
	if !b.inBurst(50 * time.Millisecond) {
		t.Error("50ms should be inside the burst window")
	}
	if b.inBurst(500 * time.Millisecond) {
		t.Error("500ms should be outside the burst window")
	}

	// Poisson gaps are positive and deterministic under a fixed seed.
	p := Poisson{Rate: 1000}
	g1 := p.Next(rand.New(rand.NewSource(7)), 0)
	g2 := p.Next(rand.New(rand.NewSource(7)), 0)
	if g1 != g2 {
		t.Errorf("same seed, different Poisson gaps: %v vs %v", g1, g2)
	}
	if g1 <= 0 {
		t.Errorf("Poisson gap = %v, want > 0", g1)
	}
}

// TestBatchAmortization pins that the virtual replica actually batches:
// the arrival rate (50k/s) is far beyond single-row service capacity
// (~9.9k/s at 100µs+1µs/row) but well within batched capacity
// (64 rows per 164µs launch). Everything completes only if rows
// coalesce into shared launches, exactly like the real batcher.
func TestBatchAmortization(t *testing.T) {
	res, err := Run(Scenario{
		Name:     "amortization",
		Duration: 200 * time.Millisecond,
		Replicas: 1,
		Classes:  10, Features: 16,
		MaxBatch: 64, Linger: 100 * time.Microsecond, QueueDepth: 64,
		Service: serviceModel100us1us(),
		Load: []ClassLoad{
			{Priority: control.Interactive, Process: Constant{Every: 20 * time.Microsecond}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 10000 {
		t.Fatalf("requests = %d, want 10000", res.Requests)
	}
	if res.Completed != res.Requests || res.Rejected != 0 {
		t.Errorf("completed %d, rejected %d of %d: single-row service cannot keep up, so batching must have failed",
			res.Completed, res.Rejected, res.Requests)
	}
}

// TestWRRShareUnderOverload drives one slow replica with competing
// interactive and background floods whose combined demand exceeds
// capacity. The real WRR scheduler's 16:1 dequeue weights give
// interactive all the slots its own demand needs (it completes fully)
// while background degrades to the leftover share — but never to zero:
// the starvation bound has two sides.
func TestWRRShareUnderOverload(t *testing.T) {
	res, err := Run(Scenario{
		Name:     "wrr-share",
		Duration: time.Second,
		Replicas: 1,
		Classes:  10, Features: 16,
		MaxBatch: 8, Linger: -1, QueueDepth: 512,
		Service: serviceModel100us1us(),
		Load: []ClassLoad{
			{Priority: control.Interactive, Process: Constant{Every: 15 * time.Microsecond}},
			{Priority: control.Background, Process: Constant{Every: 15 * time.Microsecond}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	inter, bg := res.Class(control.Interactive), res.Class(control.Background)
	if inter.Completed != inter.Arrived || inter.RejectedTotal() != 0 {
		t.Errorf("interactive completed %d of %d (rejected %d): want full service under contention",
			inter.Completed, inter.Arrived, inter.RejectedTotal())
	}
	if bg.Completed == 0 {
		t.Error("background starved: completed = 0, want > 0 (weight >= 1 guarantees progress)")
	}
	if bg.Completed >= bg.Arrived {
		t.Errorf("background completed %d of %d: the overload must cost the flood, not interactive",
			bg.Completed, bg.Arrived)
	}
}

// TestClassModeLegsAndMerge runs a small R=1 x S=3 grid and checks the
// class-sharded data plane end to end: every request scatters one leg
// per shard and completes when the slowest leg lands.
func TestClassModeLegsAndMerge(t *testing.T) {
	res, err := Run(Scenario{
		Name:     "class-legs",
		Duration: 100 * time.Millisecond,
		Mode:     "class",
		Replicas: 1, Shards: 3,
		Classes: 10, Features: 16,
		MaxBatch: 16, Linger: -1, QueueDepth: 128,
		Service: serviceModel100us1us(),
		Load: []ClassLoad{
			{Priority: control.Interactive, Process: Constant{Every: time.Millisecond}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 100 {
		t.Fatalf("requests = %d, want 100", res.Requests)
	}
	if res.Completed != res.Requests || res.Errors != 0 {
		t.Errorf("completed %d, errors %d of %d requests", res.Completed, res.Errors, res.Requests)
	}
	// One leg per shard, service >= 101µs each: a request can never
	// complete faster than one shard's batch time.
	if p50 := res.Class(control.Interactive).Latency.P50; p50 < 100*time.Microsecond {
		t.Errorf("p50 = %v, want >= the 100µs shard service floor", p50)
	}
}

func serviceModel100us1us() cluster.ServiceTimeModel {
	return cluster.ServiceTimeModel{Name: "test-100us-1us", Base: 100 * time.Microsecond, PerRow: time.Microsecond}
}
