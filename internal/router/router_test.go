package router

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"newtonadmm/internal/device"
	"newtonadmm/internal/serve"
)

var testDev = device.New("router-test", 2)

// randWeights builds a (classes-1)*features weight vector.
func randWeights(rng *rand.Rand, classes, features int) []float64 {
	w := make([]float64, (classes-1)*features)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	return w
}

// randBatch builds a mixed dense+CSR batch (odd rows sparse) and returns
// it together with the per-row dense form for single-node reference
// scoring.
func randBatch(rng *rand.Rand, rows, features int, density float64) (*Batch, [][]float64) {
	var b Batch
	dense := make([][]float64, rows)
	for i := 0; i < rows; i++ {
		row := make([]float64, features)
		for j := range row {
			if rng.Float64() < density {
				row[j] = rng.NormFloat64()
			}
		}
		dense[i] = row
		if i%2 == 1 {
			var idx []int
			var val []float64
			for j, v := range row {
				if v != 0 {
					idx = append(idx, j)
					val = append(val, v)
				}
			}
			b.AddCSR(idx, val)
		} else {
			b.AddDense(row)
		}
	}
	return &b, dense
}

// localReplica builds one in-process replica with its own device (the
// scatter path launches kernels on all replicas concurrently; a device
// is a single-stream resource, so sharing one across replicas is
// forbidden — exactly like production, where every replica owns its
// device). With n > 0 the replica serves class shard i of n; n == 0
// serves the full model.
func localReplica(t testing.TB, w []float64, classes, features, i, n int) *LocalBackend {
	t.Helper()
	reg := serve.NewRegistry()
	weights, localClasses := w, classes
	meta := serve.ModelMeta{}
	if n > 0 {
		plan, err := PlanShards(classes, n)
		if err != nil {
			t.Fatal(err)
		}
		rng := plan[i]
		weights = w[rng.Low*features : rng.High*features]
		localClasses = rng.Width() + 1
		meta = serve.ModelMeta{
			ShardIndex: i, ShardCount: n,
			ShardLow: rng.Low, ShardHigh: rng.High, TotalClasses: classes,
		}
	}
	p, err := serve.NewPredictor(weights, localClasses, features, 1)
	if err != nil {
		t.Fatal(err)
	}
	reg.Swap(p, meta)
	bat := serve.NewBatcher(reg, serve.BatcherConfig{MaxBatch: 16, MaxLinger: 50 * time.Microsecond, QueueDepth: 256})
	return NewLocalBackend(reg, bat, nil)
}

// newClassRouter builds a class-sharded router over n local shards.
func newClassRouter(t testing.TB, w []float64, classes, features, n int) *Router {
	t.Helper()
	backends := make([]Backend, n)
	for i := 0; i < n; i++ {
		backends[i] = localReplica(t, w, classes, features, i, n)
	}
	rt, err := New(backends, Options{Mode: ModeClass, HealthEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestClassShardedBitwiseIdentical is the core acceptance property,
// parameterized over every router↔replica transport: class-sharded
// routing over 1..4 replicas returns bitwise-identical classes and
// probabilities to a single Predictor holding the full model, for
// mixed dense+CSR batches — in process (local) and across the binary
// frame plane (binary), which must preserve every float64 bit by
// carrying raw IEEE-754 bits.
func TestClassShardedBitwiseIdentical(t *testing.T) {
	const classes, features, rows = 10, 33, 17
	rng := rand.New(rand.NewSource(90))
	w := randWeights(rng, classes, features)
	b, dense := randBatch(rng, rows, features, 0.6)

	single, err := serve.NewPredictorOn(testDev, w, classes, features)
	if err != nil {
		t.Fatal(err)
	}
	wantPred := make([]int, rows)
	if err := single.PredictDense(dense, wantPred); err != nil {
		t.Fatal(err)
	}
	wantProba := make([]float64, rows*classes)
	if err := single.ProbaDense(dense, wantProba); err != nil {
		t.Fatal(err)
	}

	for _, transport := range transports {
		t.Run(transport, func(t *testing.T) {
			for shards := 1; shards <= 4; shards++ {
				backends := make([]Backend, shards)
				for i := 0; i < shards; i++ {
					backends[i] = shardBackend(t, transport, w, classes, features, i, shards)
				}
				rt, err := New(backends, Options{Mode: ModeClass, HealthEvery: -1})
				if err != nil {
					t.Fatal(err)
				}
				gotPred := make([]int, rows)
				if err := rt.Predict(b, gotPred); err != nil {
					t.Fatal(err)
				}
				for i := range wantPred {
					if gotPred[i] != wantPred[i] {
						t.Fatalf("shards=%d row %d: router class %d, single-node %d", shards, i, gotPred[i], wantPred[i])
					}
				}
				gotProba := make([]float64, rows*classes)
				gotCls := make([]int, rows)
				if err := rt.Proba(b, gotProba, gotCls); err != nil {
					t.Fatal(err)
				}
				for i := range wantProba {
					if gotProba[i] != wantProba[i] { // bitwise: float64 ==
						t.Fatalf("shards=%d proba[%d]: router %v, single-node %v", shards, i, gotProba[i], wantProba[i])
					}
				}
				for i := range wantPred {
					if gotCls[i] != wantPred[i] {
						t.Fatalf("shards=%d proba-class row %d: %d vs %d", shards, i, gotCls[i], wantPred[i])
					}
				}
				// Leave the backends to t.Cleanup (shared stacks); only
				// the router's monitor/scratch need closing here. The
				// pool would close the backends too, which Cleanup
				// tolerates: Close is idempotent on every transport.
				rt.Close()
			}
		})
	}
}

// TestReplicaModeMatchesSingle checks replica-balanced routing returns
// the single-node answers regardless of which replica serves.
func TestReplicaModeMatchesSingle(t *testing.T) {
	const classes, features, rows = 4, 12, 11
	rng := rand.New(rand.NewSource(91))
	w := randWeights(rng, classes, features)
	b, dense := randBatch(rng, rows, features, 0.7)

	single, err := serve.NewPredictorOn(testDev, w, classes, features)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]int, rows)
	if err := single.PredictDense(dense, want); err != nil {
		t.Fatal(err)
	}

	backends := []Backend{
		localReplica(t, w, classes, features, 0, 0),
		localReplica(t, w, classes, features, 0, 0),
		localReplica(t, w, classes, features, 0, 0),
	}
	rt, err := New(backends, Options{Mode: ModeReplica, HealthEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	for trial := 0; trial < 8; trial++ { // different picks, same answers
		got := make([]int, rows)
		if err := rt.Predict(b, got); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d row %d: %d vs %d", trial, i, got[i], want[i])
			}
		}
	}
	proba := make([]float64, rows*classes)
	cls := make([]int, rows)
	if err := rt.Proba(b, proba, cls); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if cls[i] != want[i] {
			t.Fatalf("proba class row %d: %d vs %d", i, cls[i], want[i])
		}
	}
}

func TestPlanShards(t *testing.T) {
	plan, err := PlanShards(10, 4) // 9 explicit rows -> 3,2,2,2
	if err != nil {
		t.Fatal(err)
	}
	widths := []int{3, 2, 2, 2}
	want := 0
	for i, s := range plan {
		if s.Low != want || s.Width() != widths[i] {
			t.Fatalf("shard %d: [%d,%d), want start %d width %d", i, s.Low, s.High, want, widths[i])
		}
		want = s.High
	}
	if want != 9 {
		t.Fatalf("plan covers [0,%d), want [0,9)", want)
	}
	if _, err := PlanShards(3, 4); err == nil {
		t.Fatal("accepted more shards than explicit class rows")
	}
	if _, err := PlanShards(10, 0); err == nil {
		t.Fatal("accepted zero shards")
	}
}

// TestClassModeRejectsBadTiling checks the construction-time coverage
// validation.
func TestClassModeRejectsBadTiling(t *testing.T) {
	const classes, features = 6, 8
	rng := rand.New(rand.NewSource(92))
	w := randWeights(rng, classes, features)
	// Two replicas both serving shard 0 of 2: overlap, gap at the top.
	b0 := localReplica(t, w, classes, features, 0, 2)
	b1 := localReplica(t, w, classes, features, 0, 2)
	defer b0.Close()
	defer b1.Close()
	if _, err := New([]Backend{b0, b1}, Options{Mode: ModeClass, HealthEvery: -1}); err == nil {
		t.Fatal("accepted overlapping shards")
	}
	// A full replica mixed into class mode with >1 replicas.
	full := localReplica(t, w, classes, features, 0, 0)
	defer full.Close()
	shard := localReplica(t, w, classes, features, 0, 2)
	defer shard.Close()
	if _, err := New([]Backend{full, shard}, Options{Mode: ModeClass, HealthEvery: -1}); err == nil {
		t.Fatal("accepted full replica as class shard")
	}
	// Replica mode rejects shard replicas.
	if _, err := New([]Backend{shard}, Options{Mode: ModeReplica, HealthEvery: -1}); err == nil {
		t.Fatal("replica mode accepted a shard backend")
	}
}

// TestClassModeVersionSkew checks a half-rolled-out fleet is detected:
// one shard on v2 while the other stays on v1 fails with ErrVersionSkew
// after bounded retries, and completes again once versions realign.
func TestClassModeVersionSkew(t *testing.T) {
	const classes, features, rows = 5, 9, 4
	rng := rand.New(rand.NewSource(93))
	w := randWeights(rng, classes, features)
	b0 := localReplica(t, w, classes, features, 0, 2)
	b1 := localReplica(t, w, classes, features, 1, 2)
	rt, err := New([]Backend{b0, b1}, Options{Mode: ModeClass, HealthEvery: -1, SkewRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	batch, _ := randBatch(rng, rows, features, 0.8)
	out := make([]int, rows)
	if err := rt.Predict(batch, out); err != nil {
		t.Fatal(err)
	}

	// Swap only shard 0 to a new snapshot: versions diverge (v2 vs v1).
	swapShard := func(lb *LocalBackend, i int) {
		plan, _ := PlanShards(classes, 2)
		rng2 := plan[i]
		p, err := serve.NewPredictor(w[rng2.Low*features:rng2.High*features], rng2.Width()+1, features, 1)
		if err != nil {
			t.Fatal(err)
		}
		lb.Registry().Swap(p, serve.ModelMeta{
			ShardIndex: i, ShardCount: 2, ShardLow: rng2.Low, ShardHigh: rng2.High, TotalClasses: classes,
		})
	}
	swapShard(b0, 0)
	if err := rt.Predict(batch, out); !errors.Is(err, ErrVersionSkew) {
		t.Fatalf("got %v, want ErrVersionSkew", err)
	}
	if rt.Stats().SkewRetry == 0 {
		t.Fatal("no skew retries recorded")
	}
	// Align shard 1; requests flow again.
	swapShard(b1, 1)
	if err := rt.Predict(batch, out); err != nil {
		t.Fatal(err)
	}
}

// TestClassModeShapeChangeRejected checks the stale-plan guard: a shard
// whose snapshot width no longer matches the router's plan (a
// shape-changing swap behind the router's back) fails the request with
// serve.ErrModelShapeChanged instead of merging a misaligned tile or
// panicking.
func TestClassModeShapeChangeRejected(t *testing.T) {
	const classes, features, rows = 5, 9, 3
	rng := rand.New(rand.NewSource(98))
	w := randWeights(rng, classes, features)
	b0 := localReplica(t, w, classes, features, 0, 2)
	b1 := localReplica(t, w, classes, features, 1, 2)
	rt, err := New([]Backend{b0, b1}, Options{Mode: ModeClass, HealthEvery: -1, SkewRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Swap shard 0 to a snapshot with a different width (the full
	// model: 4 explicit rows where the plan expects 2).
	p, err := serve.NewPredictor(w, classes, features, 1)
	if err != nil {
		t.Fatal(err)
	}
	b0.Registry().Swap(p, serve.ModelMeta{})
	batch, _ := randBatch(rng, rows, features, 0.8)
	err = rt.Predict(batch, make([]int, rows))
	if !errors.Is(err, serve.ErrModelShapeChanged) {
		t.Fatalf("got %v, want ErrModelShapeChanged", err)
	}
}

// TestRouterEmptyBatch checks zero-row requests are no-ops.
func TestRouterEmptyBatch(t *testing.T) {
	const classes, features = 4, 6
	rng := rand.New(rand.NewSource(94))
	w := randWeights(rng, classes, features)
	rt := newClassRouter(t, w, classes, features, 2)
	defer rt.Close()
	var b Batch
	if err := rt.Predict(&b, nil); err != nil {
		t.Fatal(err)
	}
	if err := rt.Proba(&b, nil, nil); err != nil {
		t.Fatal(err)
	}
}
