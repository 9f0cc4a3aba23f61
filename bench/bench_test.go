package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"

	"newtonadmm/internal/datasets"
)

func TestSelfTimeSubtractsChildCoverOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past the parent
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	// Children cover [10,50) and [90,100) of the parent: 50 of 100.
	for id, want := range map[int64]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := selfByName(spans)["parent"]; got != 50e-6 {
		t.Errorf("selfByName(parent) = %v ms, want 5e-05", got)
	}
}

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n           int
		want, level float64
	}{
		{30000, 0.99, 0.99}, {1000, 0.99, 0.99}, {999, 0.99, 0.95},
		{200, 0.99, 0.95}, {199, 0.99, 0.90}, {100, 0.95, 0.90},
		{99, 0.99, 0.75}, {40, 0.99, 0.75}, {39, 0.99, 0.5}, {3, 0.95, 0.5},
		{30000, 0.95, 0.95}, {1000, 0.75, 0.75},
	} {
		if level := tailLevel(c.n, c.want); level != c.level {
			t.Errorf("tailLevel(%d, %v) = %v, want %v", c.n, c.want, level, c.level)
		}
	}
	if v, level := tail([]float64{5, 1, 9, 3}, 0.99); v != 4 || level != 0.5 {
		t.Errorf("tail of 4 samples = %v at %v, want the median", v, level)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(xs, n=4) gives 2.8875 and 3.1625; the median is 3.025.
	xs := []float64{3.1, 2.9, 3.0, 3.3, 2.7, 3.05, 3.2, 2.95, 3.15, 2.85}
	if got, want := spread(xs), (3.1625-2.8875)/3.025; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := spread([]float64{1, 2, 3}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread of 1,2,3 = %v, want 1", got)
	}
}

func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	a := newSchedule(7, 5000, 2, requestPool, 1000)
	b := newSchedule(7, 5000, 2, requestPool, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if c := newSchedule(8, 5000, 2, requestPool, 1000); reflect.DeepEqual(a.Due, c.Due) || reflect.DeepEqual(a.Rows, c.Rows) {
		t.Fatal("two seeds gave the same schedule")
	}
	if !sort.SliceIsSorted(a.Due, func(i, j int) bool { return a.Due[i] < a.Due[j] }) {
		t.Fatal("due times are not increasing")
	}
	for i, due := range a.Due { // paced: one request in each slot of 1 ms
		if slot := time.Duration(i) * time.Millisecond; due < slot || due >= slot+time.Millisecond {
			t.Fatalf("request %d is due at %v, outside its slot", i, due)
		}
	}
	if closed := newSchedule(7, 10, 32, requestPool, 0); closed.Due != nil || len(closed.Rows[0]) != 32 {
		t.Errorf("closed-loop schedule has due times or the wrong row count")
	}
}

// tiny is a workload small enough for tier-1: same code paths, a dataset
// of a few hundred kilobytes.
func tiny(focus string) workload {
	return workload{
		Name: "tiny-" + focus, Focus: focus,
		Pool: datasets.Config{
			Name: "tiny", Samples: 2500, TestSamples: 300, Features: 40, Classes: 4,
			Seed: 5, Decay: 0.3, Noise: 1, Separation: 3,
		},
		Rows: 2000, Lambda: 1e-3, ThetaFrac: 0.7, AccFloor: 0.3,
		RowsPerReq: 4, Proba: true,
	}
}

func TestTracedSolveReconcilesAndMatchesUntraced(t *testing.T) {
	// Five times tiny's rows and a target two thirds of the way down its
	// curve: a three-epoch solve of some tens of milliseconds, so that 5%
	// of it is longer than a scheduling hiccup on a busy box.
	w := tiny("train")
	w.Pool.Samples, w.Rows, w.ThetaFrac = 12500, 10000, 0.468
	ds, err := w.buildDataset(1)
	if err != nil {
		t.Fatal(err)
	}
	plain := w.solve(ds, nil)
	if plain.Err != nil {
		t.Fatal(plain.Err)
	}
	// The counts and the weights are exact on every attempt; the timing
	// identity gets three attempts, because `go test ./...` runs other
	// packages' tests on the same two cores.
	const attempts = 3
	for attempt := 1; ; attempt++ {
		tr := newTracer()
		traced := w.solve(ds, tr)
		if traced.Err != nil || !traced.Reached || traced.Epochs != 3 {
			t.Fatalf("traced solve: %v, reached %v after %d epochs, want 3", traced.Err, traced.Reached, traced.Epochs)
		}
		if plain.Hash != traced.Hash || plain.Epochs != traced.Epochs {
			t.Fatalf("tracing changed the result: %x/%d epochs against %x/%d", traced.Hash, traced.Epochs, plain.Hash, plain.Epochs)
		}
		m := newMetricSet()
		reconciled := traced.rungs(m)
		// wall = compute + send + recv-wait + other, per rank, within 5%.
		for i, st := range traced.Stats {
			tt := traced.Ranks[i]
			parts := st.Compute + time.Duration(tt.sendNs+tt.recvNs)
			if wall := tt.closed.Sub(tt.opened); parts > wall || float64(wall) > 1.05*float64(traced.Wall) {
				t.Logf("attempt %d, rank %d: parts %v, rank span %v, solve %v", attempt, i, parts, wall, traced.Wall)
				reconciled = false
			}
		}
		if got := m.vals["cluster.rounds_per_epoch"].Value; got != 2 {
			t.Fatalf("rounds per epoch = %v, want 2 (one gather, one broadcast)", got)
		}
		if m.vals["cluster.bytes_per_epoch"].Value <= 0 || m.vals["device.flops_per_epoch"].Value <= 0 {
			t.Fatalf("no bytes or flops counted: %v", m.vals)
		}
		byName := selfByName(tr.snapshot())
		for _, name := range []string{"train", "rank.0", "rank.1", "cluster.send", "cluster.recv"} {
			if _, ok := byName[name]; !ok {
				t.Fatalf("no %s span recorded", name)
			}
		}
		if reconciled {
			return
		}
		if attempt == attempts {
			t.Fatalf("rank spans did not reconcile with the solve's wall time in %d attempts", attempts)
		}
	}
}

// declared reads the metric names BENCHMARK.json promises.
func declared(t *testing.T) (endToEnd, perLayer []string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, e := range bf.EndToEnd {
		endToEnd = append(endToEnd, e.Name)
	}
	for _, e := range bf.PerLayer {
		perLayer = append(perLayer, e.Name)
	}
	return endToEnd, perLayer
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := bf.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%s), the harness %q (%s)", i, got.Name, got.Why, w.Name, w.Why)
		}
	}
}

func sameNames(t *testing.T, kind string, got map[string]metricValue, want []string) {
	t.Helper()
	var names []string
	for n := range got {
		names = append(names, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if !reflect.DeepEqual(names, want) {
		t.Errorf("%s metrics printed:\n%v\nBENCHMARK.json declares:\n%v", kind, names, want)
	}
}

func TestRunsPrintExactlyTheDeclaredMetrics(t *testing.T) {
	outDir = t.TempDir()
	endToEnd, perLayer := declared(t)
	for _, focus := range []string{"train", "serve"} {
		res, err := tiny(focus).runEndToEnd(1, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: %d of %d operations failed", focus, res.Failed, res.Attempted)
		}
		sameNames(t, focus+" end-to-end", res.Metrics, endToEnd)
	}
	// The traced pass fails a solve whose rank spans miss its wall time by
	// 5%. That is milliseconds here, so the solve is the three-epoch one of
	// the reconciliation test and a miss gets two more attempts.
	open := tiny("serve")
	open.Open, open.RatePerSec, open.RowsPerReq, open.Proba = true, 300, 1, false
	open.Pool.Samples, open.Rows, open.ThetaFrac = 12500, 10000, 0.468
	var res result
	for attempt := 1; attempt <= 3; attempt++ {
		var err error
		if res, err = open.runTraced(2, 1); err != nil {
			t.Fatal(err)
		}
		if res.Correct {
			break
		}
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced: %d of %d operations failed", res.Failed, res.Attempted)
	}
	sameNames(t, "per-layer", res.Metrics, perLayer)
	if got := res.Metrics["loss.allocs_per_gradient"].Value; got != 0 {
		t.Errorf("gradient allocates %v times per call", got)
	}
	if _, err := os.Stat(outDir + "/tiny-serve.trace.jsonl"); err != nil {
		t.Errorf("no span file: %v", err)
	}
}
