package router

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newtonadmm/internal/serve"
)

// fakeBackend is a scriptable Backend for routing-policy tests (the
// production backends are covered by the correctness tests; these pin
// the control plane deterministically).
type fakeBackend struct {
	meta      serve.ModelMeta
	metaErr   atomic.Pointer[error]
	predictFn func(b *Batch, out []int) error
	calls     atomic.Int64
}

func newFakeBackend(classes, features int) *fakeBackend {
	return &fakeBackend{meta: serve.ModelMeta{
		Classes: classes, Features: features, Version: 1,
		ShardHigh: classes - 1, TotalClasses: classes,
	}}
}

func (f *fakeBackend) Meta() (serve.ModelMeta, error) {
	if ep := f.metaErr.Load(); ep != nil {
		return serve.ModelMeta{}, *ep
	}
	return f.meta, nil
}

func (f *fakeBackend) Score(b *Batch, preds []int, proba []float64) error {
	if proba != nil {
		return nil
	}
	f.calls.Add(1)
	if f.predictFn != nil {
		return f.predictFn(b, preds)
	}
	return nil
}

func (f *fakeBackend) PartialScores(b *Batch, cols int, out []float64) (int64, error) {
	return f.meta.Version, nil
}
func (f *fakeBackend) Reload() (int64, error) { return f.meta.Version, nil }
func (f *fakeBackend) Close()                 {}

func oneRowBatch(features int) *Batch {
	var b Batch
	b.AddDense(make([]float64, features))
	return &b
}

// TestFailoverOnQueueFull checks 429-aware failover: a replica whose
// queue is full is skipped and its rejection counted, and the request
// completes on another replica. When every replica is saturated the
// caller sees serve.ErrQueueFull (HTTP 429), not a silent drop.
func TestFailoverOnQueueFull(t *testing.T) {
	full := newFakeBackend(4, 8)
	full.predictFn = func(*Batch, []int) error { return serve.ErrQueueFull }
	ok := newFakeBackend(4, 8)
	rt, err := New([]Backend{full, ok}, Options{Mode: ModeReplica, HealthEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	out := make([]int, 1)
	for trial := 0; trial < 16; trial++ {
		if err := rt.Predict(oneRowBatch(8), out); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if ok.calls.Load() != 16 {
		t.Fatalf("healthy replica served %d of 16", ok.calls.Load())
	}
	st := rt.Stats()
	if st.Replicas[0].Rejected == 0 {
		t.Fatal("no rejections recorded on the saturated replica")
	}
	// The saturated replica must not be marked down: backpressure is a
	// load signal, not a failure signal.
	if got := rt.Pool().Replicas()[0].State(); got != StateHealthy {
		t.Fatalf("saturated replica state %v, want healthy", got)
	}

	ok.predictFn = func(*Batch, []int) error { return serve.ErrQueueFull }
	if err := rt.Predict(oneRowBatch(8), out); !errors.Is(err, serve.ErrQueueFull) {
		t.Fatalf("all-saturated fleet returned %v, want ErrQueueFull", err)
	}
}

// TestTransportErrorsMarkReplicaDown checks FailAfter consecutive
// transport-level data-plane errors evict a replica, traffic fails
// over, and a healthy probe restores it.
func TestTransportErrorsMarkReplicaDown(t *testing.T) {
	bad := newFakeBackend(4, 8)
	bad.predictFn = func(*Batch, []int) error {
		return fmt.Errorf("%w 127.0.0.1:9: connection refused", ErrReplicaUnreachable)
	}
	ok := newFakeBackend(4, 8)
	rt, err := New([]Backend{bad, ok}, Options{Mode: ModeReplica, HealthEvery: -1, FailAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	out := make([]int, 1)
	for trial := 0; trial < 32; trial++ {
		if err := rt.Predict(oneRowBatch(8), out); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
	if got := rt.Pool().Replicas()[0].State(); got != StateDown {
		t.Fatalf("failing replica state %v after %d errors, want down", got, rt.Stats().Replicas[0].Errors)
	}
	// Once down it receives no traffic.
	before := bad.calls.Load()
	for trial := 0; trial < 8; trial++ {
		if err := rt.Predict(oneRowBatch(8), out); err != nil {
			t.Fatal(err)
		}
	}
	if bad.calls.Load() != before {
		t.Fatal("down replica still receiving traffic")
	}
}

// TestClientErrorsDoNotEvictReplica checks the health-signal policy:
// request-shaped failures (a malformed row, a wire 400) count as errors
// but never mark a replica down, and a served request resets the
// transport-failure streak.
func TestClientErrorsDoNotEvictReplica(t *testing.T) {
	flaky := newFakeBackend(4, 8)
	clientErr := true
	flaky.predictFn = func(*Batch, []int) error {
		if clientErr {
			return fmt.Errorf("row 0 has 3 features, model expects 8")
		}
		return nil
	}
	rt, err := New([]Backend{flaky}, Options{Mode: ModeReplica, HealthEvery: -1, FailAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	out := make([]int, 1)
	for trial := 0; trial < 10; trial++ {
		if err := rt.Predict(oneRowBatch(8), out); err == nil {
			t.Fatal("expected the client error to propagate")
		}
	}
	if got := rt.Pool().Replicas()[0].State(); got != StateHealthy {
		t.Fatalf("replica state %v after client errors, want healthy", got)
	}
	// One transport failure, then a success, then another transport
	// failure: the streak reset by the success keeps the replica up
	// with FailAfter=2.
	unreachable := fmt.Errorf("%w x: dial", ErrReplicaUnreachable)
	clientErr = false
	flaky.predictFn = func(*Batch, []int) error { return unreachable }
	rt.Predict(oneRowBatch(8), out)
	flaky.predictFn = nil
	if err := rt.Predict(oneRowBatch(8), out); err != nil {
		t.Fatal(err)
	}
	flaky.predictFn = func(*Batch, []int) error { return unreachable }
	rt.Predict(oneRowBatch(8), out)
	if got := rt.Pool().Replicas()[0].State(); got != StateHealthy {
		t.Fatalf("replica state %v after non-consecutive transport errors, want healthy", got)
	}
}

// TestHealthMonitorRecovers checks the probe loop: a replica whose Meta
// fails goes down after FailAfter probes and comes back when probes
// succeed again.
func TestHealthMonitorRecovers(t *testing.T) {
	fb := newFakeBackend(4, 8)
	rt, err := New([]Backend{fb, newFakeBackend(4, 8)}, Options{
		Mode: ModeReplica, HealthEvery: 2 * time.Millisecond, FailAfter: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	probeErr := errors.New("probe timeout")
	fb.metaErr.Store(&probeErr)
	waitState(t, rt.Pool().Replicas()[0], StateDown)
	fb.metaErr.Store(nil)
	waitState(t, rt.Pool().Replicas()[0], StateHealthy)
}

func waitState(t *testing.T, r *Replica, want State) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for r.State() != want {
		if time.Now().After(deadline) {
			t.Fatalf("replica %d stuck in %v, want %v", r.ID, r.State(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainUnderLoad is the failover satellite: a replica drained
// mid-run stops receiving new traffic without dropping any accepted
// request, while the rest of the fleet keeps serving; undrain restores
// it. Run with -race in CI.
func TestDrainUnderLoad(t *testing.T) {
	const classes, features = 4, 10
	rng := rand.New(rand.NewSource(95))
	w := randWeights(rng, classes, features)
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

	var stop atomic.Bool
	var served, failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			row := make([]float64, features)
			out := make([]int, 1)
			for !stop.Load() {
				for j := range row {
					row[j] = rng.NormFloat64()
				}
				var b Batch
				b.AddDense(row)
				if err := rt.Predict(&b, out); err != nil {
					failed.Add(1)
				} else {
					served.Add(1)
				}
			}
		}(int64(100 + g))
	}

	time.Sleep(20 * time.Millisecond)
	if err := rt.Pool().Drain(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	drained := rt.Pool().Replicas()[1]
	if drained.State() != StateDraining || drained.InFlight() != 0 {
		t.Fatalf("after drain: state %v, inflight %d", drained.State(), drained.InFlight())
	}
	servedAtDrain := drained.Stats().Done
	time.Sleep(20 * time.Millisecond)
	if got := drained.Stats().Done; got != servedAtDrain {
		t.Fatalf("draining replica served %d new requests", got-servedAtDrain)
	}
	if err := rt.Pool().Undrain(1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d requests failed during drain/undrain (%d served)", failed.Load(), served.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no traffic served")
	}
	if got := drained.Stats().Done; got == servedAtDrain {
		t.Fatal("undrained replica never served again")
	}
}

// TestHotSwapReplicaUnderLoad is the second half of the failover
// satellite: hot-swapping one replica's checkpoint while the others
// serve keeps every request succeeding — requests in flight on the old
// snapshot drain on it, new ones score on whichever snapshot their
// replica holds. Run with -race in CI.
func TestHotSwapReplicaUnderLoad(t *testing.T) {
	const classes, features = 4, 10
	rng := rand.New(rand.NewSource(96))
	w := randWeights(rng, classes, features)
	lb0 := localReplica(t, w, classes, features, 0, 0)
	lb1 := localReplica(t, w, classes, features, 0, 0)
	rt, err := New([]Backend{lb0, lb1}, Options{Mode: ModeReplica, HealthEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var stop atomic.Bool
	var failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			row := make([]float64, features)
			out := make([]int, 1)
			for !stop.Load() {
				for j := range row {
					row[j] = rng.NormFloat64()
				}
				var b Batch
				b.AddDense(row)
				if err := rt.Predict(&b, out); err != nil {
					failed.Add(1)
				}
			}
		}(int64(200 + g))
	}

	// Ten swaps of replica 0 under fire, alternating two weight sets.
	w2 := randWeights(rng, classes, features)
	for swap := 0; swap < 10; swap++ {
		weights := w
		if swap%2 == 0 {
			weights = w2
		}
		p, err := serve.NewPredictor(weights, classes, features, 1)
		if err != nil {
			t.Fatal(err)
		}
		lb0.Registry().Swap(p, serve.ModelMeta{})
		time.Sleep(2 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d requests failed across hot swaps", failed.Load())
	}
	if v, _ := lb0.Registry().Meta(); v.Version != 11 {
		t.Fatalf("replica 0 at version %d after 10 swaps, want 11", v.Version)
	}
}

// TestAllReplicasDown checks the no-replica path returns ErrNoReplicas.
func TestAllReplicasDown(t *testing.T) {
	fb := newFakeBackend(4, 8)
	rt, err := New([]Backend{fb}, Options{Mode: ModeReplica, HealthEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.Pool().Drain(0, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := rt.Predict(oneRowBatch(8), make([]int, 1)); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("got %v, want ErrNoReplicas", err)
	}
}

// TestClassModeDrainMakesShardUnavailable documents single-copy shard
// semantics: draining a shard replica takes the tier down (503), not a
// silent partial answer.
func TestClassModeDrainMakesShardUnavailable(t *testing.T) {
	const classes, features = 5, 8
	rng := rand.New(rand.NewSource(97))
	w := randWeights(rng, classes, features)
	rt := newClassRouter(t, w, classes, features, 2)
	defer rt.Close()
	if err := rt.Pool().Drain(0, time.Second); err != nil {
		t.Fatal(err)
	}
	err := rt.Predict(oneRowBatch(features), make([]int, 1))
	if !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("got %v, want ErrShardUnavailable", err)
	}
}
