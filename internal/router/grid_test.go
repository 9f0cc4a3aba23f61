package router

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"newtonadmm/internal/serve"
)

// gridMeta builds one member's meta for shard [lo,hi) of a model with
// total classes.
func gridMeta(lo, hi, total, features int, zone string) serve.ModelMeta {
	return serve.ModelMeta{
		Classes: hi - lo + 1, Features: features, Version: 1,
		ShardCount: 2, ShardLow: lo, ShardHigh: hi, TotalClasses: total,
		Zone: zone,
	}
}

func TestPlanGroupsGrid(t *testing.T) {
	// R=2 x S=2: members reporting the same range group together.
	metas := []serve.ModelMeta{
		gridMeta(0, 2, 5, 8, ""), gridMeta(0, 2, 5, 8, ""),
		gridMeta(2, 4, 5, 8, ""), gridMeta(2, 4, 5, 8, ""),
	}
	plans, err := planGroupsFromMetas(metas)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 2 {
		t.Fatalf("got %d groups, want 2", len(plans))
	}
	if plans[0].Range != (ShardRange{0, 2}) || plans[1].Range != (ShardRange{2, 4}) {
		t.Fatalf("ranges %v %v, want [0,2) [2,4)", plans[0].Range, plans[1].Range)
	}
	if len(plans[0].Members) != 2 || plans[0].Members[0] != 0 || plans[0].Members[1] != 1 {
		t.Fatalf("group 0 members %v, want [0 1]", plans[0].Members)
	}
	if len(plans[1].Members) != 2 || plans[1].Members[0] != 2 || plans[1].Members[1] != 3 {
		t.Fatalf("group 1 members %v, want [2 3]", plans[1].Members)
	}

	// R full-model copies form a single S=1 group (the old planner
	// rejected more than one full replica in class mode).
	full := serve.ModelMeta{Classes: 5, Features: 8, Version: 1}
	plans, err = planGroupsFromMetas([]serve.ModelMeta{full, full})
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) != 1 || len(plans[0].Members) != 2 {
		t.Fatalf("two full copies: %d groups x %d members, want 1x2", len(plans), len(plans[0].Members))
	}

	// A replicated group does not excuse a coverage gap.
	if _, err := planGroupsFromMetas([]serve.ModelMeta{gridMeta(0, 2, 5, 8, ""), gridMeta(0, 2, 5, 8, "")}); err == nil {
		t.Fatal("uncovered range [2,4) accepted")
	}
}

func TestZoneSpreadInvariant(t *testing.T) {
	// Multi-zone fleet, group 0 concentrated in one zone: rejected.
	metas := []serve.ModelMeta{
		gridMeta(0, 2, 5, 8, "a"), gridMeta(0, 2, 5, 8, "a"),
		gridMeta(2, 4, 5, 8, "a"), gridMeta(2, 4, 5, 8, "b"),
	}
	_, err := planGroupsFromMetas(metas)
	if err == nil || !strings.Contains(err.Error(), "zone") {
		t.Fatalf("single-zone group in a multi-zone fleet: got %v, want zone-spread error", err)
	}

	// Spread groups pass.
	metas[1].Zone = "b"
	if _, err := planGroupsFromMetas(metas); err != nil {
		t.Fatalf("spread grid rejected: %v", err)
	}

	// A fleet that declares no zones (or one zone) has nothing to
	// spread across; no error.
	for i := range metas {
		metas[i].Zone = ""
	}
	if _, err := planGroupsFromMetas(metas); err != nil {
		t.Fatalf("zoneless grid rejected: %v", err)
	}
}

// gridFake builds a fakeBackend reporting shard [lo,hi) of total.
func gridFake(lo, hi, total int, zone string) *fakeBackend {
	f := newFakeBackend(total, 8)
	f.meta = gridMeta(lo, hi, total, 8, zone)
	return f
}

func TestCoverageAndDrainGuard(t *testing.T) {
	backends := []Backend{
		gridFake(0, 2, 5, ""), gridFake(0, 2, 5, ""),
		gridFake(2, 4, 5, ""), gridFake(2, 4, 5, ""),
	}
	rt, err := New(backends, Options{HealthEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	pool := rt.Pool()

	status, shards := pool.Coverage()
	if status != "ok" || len(shards) != 2 || shards[0].Healthy != 2 || shards[1].Healthy != 2 {
		t.Fatalf("fresh grid coverage %q %+v, want ok with 2/2 per shard", status, shards)
	}
	for id := 0; id < 4; id++ {
		if err := pool.CanDrain(id); err != nil {
			t.Fatalf("CanDrain(%d) on a full grid: %v", id, err)
		}
	}

	// One member down: degraded, and its sibling becomes undrainable.
	pool.replicas[1].state.Store(int32(StateDown))
	status, shards = pool.Coverage()
	if status != "degraded" || shards[0].Healthy != 1 {
		t.Fatalf("one member down: coverage %q healthy=%d, want degraded 1", status, shards[0].Healthy)
	}
	if err := pool.CanDrain(0); err == nil {
		t.Fatal("CanDrain allowed the last available member of group 0")
	}
	if err := pool.CanDrain(2); err != nil {
		t.Fatalf("CanDrain(2) with group 1 fully healthy: %v", err)
	}
	// Draining an already-unavailable member is always allowed.
	if err := pool.CanDrain(1); err != nil {
		t.Fatalf("CanDrain of a down member: %v", err)
	}

	// Whole group down: unserviceable with a zero healthy count.
	pool.replicas[0].state.Store(int32(StateDown))
	status, shards = pool.Coverage()
	if status != "unserviceable" || shards[0].Healthy != 0 {
		t.Fatalf("group down: coverage %q healthy=%d, want unserviceable 0", status, shards[0].Healthy)
	}

	// Replica IDs carry their group assignment.
	if pool.replicas[0].GroupID != 0 || pool.replicas[3].GroupID != 1 {
		t.Fatalf("group IDs %d %d, want 0 1", pool.replicas[0].GroupID, pool.replicas[3].GroupID)
	}
}

// TestReplicaModeSingleGroup pins that whole-model replicas form one
// group of the whole fleet, so coverage semantics are those of any
// shard group.
func TestReplicaModeSingleGroup(t *testing.T) {
	rt, err := New([]Backend{newFakeBackend(4, 8), newFakeBackend(4, 8)}, Options{HealthEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	groups := rt.Pool().Groups()
	if len(groups) != 1 || len(groups[0].Members()) != 2 {
		t.Fatalf("whole-model fleet: %d groups, want 1 with 2 members", len(groups))
	}
	rt.Pool().replicas[0].state.Store(int32(StateDown))
	status, _ := rt.Pool().Coverage()
	if status != "degraded" {
		t.Fatalf("one of two replicas down: coverage %q, want degraded", status)
	}
}

// TestReplicasAdminRejectsOutOfRangeID: a replica ID is a pool index,
// so POST /v1/replicas answers 400 for an id outside [0, members) —
// in the JSON body and in the query string, for drain, forced drain and
// undrain — and leaves every member as it was.
func TestReplicasAdminRejectsOutOfRangeID(t *testing.T) {
	rt, err := New([]Backend{
		gridFake(0, 2, 5, ""), gridFake(0, 2, 5, ""),
		gridFake(2, 4, 5, ""), gridFake(2, 4, 5, ""),
	}, Options{HealthEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	hs := httptest.NewServer(NewServer(rt).Handler())
	defer hs.Close()

	n := len(rt.Pool().Replicas())
	for _, id := range []int{-1, n} {
		for _, act := range []struct{ action, force string }{{"drain", "false"}, {"drain", "true"}, {"undrain", "false"}} {
			for _, form := range []struct{ url, body string }{
				{"/v1/replicas", fmt.Sprintf(`{"id":%d,"action":%q,"force":%s}`, id, act.action, act.force)},
				{fmt.Sprintf("/v1/replicas?id=%d&action=%s&force=%s", id, act.action, act.force), ""},
			} {
				resp, err := http.Post(hs.URL+form.url, "application/json", strings.NewReader(form.body))
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusBadRequest {
					t.Errorf("%s force=%s id=%d via %q: HTTP %d (%s), want 400", act.action, act.force, id, form.url, resp.StatusCode, body)
				}
			}
		}
	}
	if got := len(rt.Pool().Replicas()); got != n {
		t.Fatalf("pool has %d members after refused requests, want %d", got, n)
	}
	for _, r := range rt.Pool().Replicas() {
		if r.State() != StateHealthy || r.InFlight() != 0 {
			t.Fatalf("replica %d is %v with %d in flight, want healthy and idle", r.ID, r.State(), r.InFlight())
		}
	}
	if status, _ := rt.Pool().Coverage(); status != "ok" {
		t.Fatalf("coverage %q after refused requests, want ok", status)
	}
}
