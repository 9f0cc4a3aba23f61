package router

import (
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newtonadmm/internal/serve"
)

// newReplicaFleet builds a router over n identical whole-model local
// replicas (one shard group) and returns it with the weight vector for growing the fleet
// later.
func newReplicaFleet(t testing.TB, classes, features, n int, seed int64) (*Router, []float64, *rand.Rand) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := randWeights(rng, classes, features)
	backends := make([]Backend, n)
	for i := 0; i < n; i++ {
		backends[i] = localReplica(t, w, classes, features, 0, 0)
	}
	rt, err := New(backends, Options{HealthEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return rt, w, rng
}

// TestMembershipUnderLoad churns the fleet — AddBackend / RemoveBackend
// in a loop — while scatter traffic runs full tilt. Every predict must
// either succeed with the right answer shape or fail with a routing
// error; no panics, no races, and the fleet ends at its starting size.
func TestMembershipUnderLoad(t *testing.T) {
	const classes, features = 4, 12
	rt, w, rng := newReplicaFleet(t, classes, features, 2, 101)
	defer rt.Close()
	b, _ := randBatch(rng, 5, features, 0.7)

	stop := make(chan struct{})
	var served, failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]int, 5)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := rt.Predict(b, out); err != nil {
					failed.Add(1)
					continue
				}
				served.Add(1)
			}
		}()
	}

	// Membership churn: grow to 4, shrink back to 2, repeatedly. The
	// drain timeout is generous — in-process replicas finish batches in
	// microseconds.
	for cycle := 0; cycle < 5; cycle++ {
		var added []int
		for i := 0; i < 2; i++ {
			id, err := rt.AddBackend(localReplica(t, w, classes, features, 0, 0))
			if err != nil {
				t.Fatalf("cycle %d AddBackend: %v", cycle, err)
			}
			added = append(added, id)
		}
		time.Sleep(2 * time.Millisecond)
		for _, id := range added {
			if err := rt.RemoveBackend(id, 5*time.Second); err != nil {
				t.Fatalf("cycle %d RemoveBackend(%d): %v", cycle, id, err)
			}
		}
	}
	close(stop)
	wg.Wait()

	if n := len(rt.Pool().Replicas()); n != 2 {
		t.Fatalf("fleet ended with %d replicas, want the starting 2", n)
	}
	if served.Load() == 0 {
		t.Fatal("no predict succeeded during membership churn")
	}
	if failed.Load() != 0 {
		// A group with >= 1 available member must never fail a
		// scatter: drains wait out in-flight work and the coverage
		// guard keeps a member available throughout.
		t.Fatalf("%d predicts failed during churn (served %d)", failed.Load(), served.Load())
	}
}

// TestRemoveBackendCoverageGuard: the last available member of the
// (single, in a whole-model fleet) group can never be removed — CanDrain
// refuses before any drain starts, and the replica keeps serving.
func TestRemoveBackendCoverageGuard(t *testing.T) {
	const classes, features = 4, 12
	rt, _, rng := newReplicaFleet(t, classes, features, 1, 102)
	defer rt.Close()

	snap := rt.Pool().Replicas()
	if len(snap) != 1 {
		t.Fatalf("fleet size = %d, want 1", len(snap))
	}
	if err := rt.RemoveBackend(snap[0].ID, time.Second); err == nil {
		t.Fatal("RemoveBackend removed the group's last available member")
	}
	// Still serving after the refused removal.
	b, _ := randBatch(rng, 3, features, 0.7)
	out := make([]int, 3)
	if err := rt.Predict(b, out); err != nil {
		t.Fatalf("predict after refused removal: %v", err)
	}
}

// TestAddBackendValidation: a member whose range matches no group is
// refused — a whole model into a class grid, a class shard into a
// whole-model fleet — and so are shape mismatches.
func TestAddBackendValidation(t *testing.T) {
	const classes, features = 6, 9
	rng := rand.New(rand.NewSource(103))
	w := randWeights(rng, classes, features)

	classRt := newClassRouter(t, w, classes, features, 2)
	defer classRt.Close()
	if _, err := classRt.AddBackend(localReplica(t, w, classes, features, 0, 0)); err == nil {
		t.Fatal("AddBackend accepted a whole-model member into a class grid")
	}

	rt, _, _ := newReplicaFleet(t, classes, features, 1, 104)
	defer rt.Close()
	// A class shard is not a full model.
	if _, err := rt.AddBackend(localReplica(t, w, classes, features, 0, 2)); err == nil {
		t.Fatal("AddBackend accepted a class shard into a replica fleet")
	}
	// Wrong shape.
	w2 := randWeights(rng, classes, features+1)
	if _, err := rt.AddBackend(localReplica(t, w2, classes, features+1, 0, 0)); err == nil {
		t.Fatal("AddBackend accepted a replica with a different feature count")
	}
	w3 := randWeights(rng, classes+1, features)
	if _, err := rt.AddBackend(localReplica(t, w3, classes+1, features, 0, 0)); err == nil {
		t.Fatal("AddBackend accepted a replica with a different class count")
	}
	if n := len(rt.Pool().Replicas()); n != 1 {
		t.Fatalf("rejected joins changed the fleet: %d replicas", n)
	}
}

// TestAddBackendJoinsMatchingGroup: a class shard added to a 2×2 grid
// becomes a sibling of the group whose range it serves, takes that
// group's legs once its siblings drain, and the merged answers stay
// bitwise identical to single-node scoring.
func TestAddBackendJoinsMatchingGroup(t *testing.T) {
	const classes, features, rows = 7, 10, 5
	rng := rand.New(rand.NewSource(107))
	w := randWeights(rng, classes, features)
	var backends []Backend
	for s := 0; s < 2; s++ {
		for r := 0; r < 2; r++ {
			backends = append(backends, localReplica(t, w, classes, features, s, 2))
		}
	}
	rt, err := New(backends, Options{HealthEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	id, err := rt.AddBackend(localReplica(t, w, classes, features, 1, 2))
	if err != nil {
		t.Fatalf("AddBackend of a shard sibling: %v", err)
	}
	groups := rt.Pool().Groups()
	if len(groups) != 2 || len(groups[0].Members()) != 2 || len(groups[1].Members()) != 3 {
		t.Fatalf("after the join: %d groups, want [2 3] members", len(groups))
	}
	if m := groups[1].Members()[2]; m.ID != id || m.GroupID != 1 {
		t.Fatalf("new member %d in group %d, want %d in group 1", m.ID, m.GroupID, id)
	}
	for _, m := range groups[1].Members()[:2] {
		if err := rt.Pool().Drain(m.ID, time.Second); err != nil {
			t.Fatal(err)
		}
	}

	b, dense := randBatch(rng, rows, features, 0.7)
	single, err := serve.NewPredictorOn(testDev, w, classes, features)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, rows*classes)
	if err := single.ProbaDense(dense, want); err != nil {
		t.Fatal(err)
	}
	got := make([]float64, rows*classes)
	if err := rt.Proba(b, got, nil); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("proba[%d]: router %v, single-node %v", i, got[i], want[i])
		}
	}
	if done := groups[1].Members()[2].Stats().Done; done != 1 {
		t.Fatalf("the joined sibling served %d legs, want 1", done)
	}
}

// TestClassModeFeatureWidthReloadRefused: class shards that all reload
// to a model of another feature width still tile the classes, but the
// router plans and prices admission at the old width, so the refresh
// after Reload or Coordinate must refuse the fleet, as it does for
// whole-model replicas.
func TestClassModeFeatureWidthReloadRefused(t *testing.T) {
	const classes, features, wider = 6, 9, 12
	rng := rand.New(rand.NewSource(106))
	w := randWeights(rng, classes, features)
	ww := randWeights(rng, classes, wider)
	plan, err := PlanShards(classes, 2)
	if err != nil {
		t.Fatal(err)
	}
	backends := make([]Backend, len(plan))
	for i, rg := range plan {
		base := localReplica(t, w, classes, features, i, len(plan))
		reg := base.Registry()
		backends[i] = NewLocalBackend(reg, func() (int64, error) {
			p, err := serve.NewPredictor(ww[rg.Low*wider:rg.High*wider], rg.Width()+1, wider, 1)
			if err != nil {
				return 0, err
			}
			return reg.Swap(p, serve.ModelMeta{
				ShardIndex: i, ShardCount: len(plan),
				ShardLow: rg.Low, ShardHigh: rg.High, TotalClasses: classes,
			}), nil
		})
	}
	rt, err := New(backends, Options{HealthEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	if _, err := rt.Reload(); err == nil || !strings.Contains(err.Error(), "restart the router") {
		t.Fatalf("Reload to %d features: err %v, want the restart-the-router refusal", wider, err)
	}
	if err := rt.Coordinate(func() error { return nil }); err == nil || !strings.Contains(err.Error(), "restart the router") {
		t.Fatalf("Coordinate over %d-feature shards: err %v, want the restart-the-router refusal", wider, err)
	}
	if got := rt.Features(); got != features {
		t.Fatalf("Features() = %d after the refused reload, want the planned %d", got, features)
	}
}

// reloadableReplica is localReplica with a working reload hook (a
// no-op rollout that re-reports the live version) so Reload can sweep
// it.
func reloadableReplica(t testing.TB, w []float64, classes, features int) *LocalBackend {
	t.Helper()
	base := localReplica(t, w, classes, features, 0, 0)
	reg := base.Registry()
	return NewLocalBackend(reg, func() (int64, error) {
		mm, ok := reg.Meta()
		if !ok {
			return 0, serve.ErrNoModel
		}
		return mm.Version, nil
	})
}

// TestRemoveBackendRacesReload: retiring replicas while Reload sweeps
// the fleet — the swap lock serializes membership changes against the
// fleet-wide re-probe, so Reload must never observe (or re-probe) a
// closed backend. Race-detector pin for the scale-down/Reload seam.
func TestRemoveBackendRacesReload(t *testing.T) {
	const classes, features = 4, 12
	rng := rand.New(rand.NewSource(105))
	w := randWeights(rng, classes, features)
	backends := []Backend{
		reloadableReplica(t, w, classes, features),
		reloadableReplica(t, w, classes, features),
	}
	rt, err := New(backends, Options{HealthEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := rt.Reload(); err != nil {
				t.Errorf("Reload during membership churn: %v", err)
				return
			}
		}
	}()

	for i := 0; i < 20; i++ {
		id, err := rt.AddBackend(reloadableReplica(t, w, classes, features))
		if err != nil {
			t.Fatalf("AddBackend %d: %v", i, err)
		}
		if err := rt.RemoveBackend(id, 5*time.Second); err != nil {
			t.Fatalf("RemoveBackend %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}
