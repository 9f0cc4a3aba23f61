package newtonadmm

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"newtonadmm/internal/router"
)

// postInstances is a test helper for the kserve wire format.
func postInstances(t *testing.T, url string, instances []any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(map[string]any{"instances": instances})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp, buf.Bytes()
}

// mixedInstances builds alternating dense/sparse wire instances from
// dense rows.
func mixedInstances(rows [][]float64) []any {
	sparse := denseToSparse(rows)
	instances := make([]any, len(rows))
	for i := range rows {
		if i%2 == 0 {
			instances[i] = rows[i]
		} else {
			instances[i] = map[string]any{"indices": sparse[i].Indices, "values": sparse[i].Values}
		}
	}
	return instances
}

// scoreRow submits one dense row to the in-process router the way the
// HTTP tier does, as one router.Batch per request. A non-nil proba takes
// the probability path and is filled with the class probabilities.
func scoreRow(rs *RouterServer, row, proba []float64) (int, error) {
	var b router.Batch
	b.AddDense(row)
	var cls [1]int
	var err error
	if proba != nil {
		err = rs.Router().Proba(&b, proba, cls[:])
	} else {
		err = rs.Router().Predict(&b, cls[:])
	}
	return cls[0], err
}

type wireResponse struct {
	Predictions   []int       `json:"predictions"`
	Probabilities [][]float64 `json:"probabilities"`
	ModelVersion  int64       `json:"model_version"`
}

// TestServeShardedClassBitwiseHTTP drives the in-process class-sharded
// tier over HTTP and pins its predictions and probabilities bitwise to
// the single-node model, mixed dense+sparse in one request.
func TestServeShardedClassBitwiseHTTP(t *testing.T) {
	m := testModel(7, 12, 21)
	rng := rand.New(rand.NewSource(22))
	rows := make([][]float64, 9)
	for i := range rows {
		rows[i] = make([]float64, m.Features)
		for j := range rows[i] {
			if rng.Float64() < 0.7 {
				rows[i][j] = rng.NormFloat64()
			}
		}
	}
	wantPred, err := m.Predict(rows)
	if err != nil {
		t.Fatal(err)
	}
	wantProba, err := m.PredictProba(rows)
	if err != nil {
		t.Fatal(err)
	}

	rs, err := ServeSharded(m, RouterOptions{
		Addr: "127.0.0.1:0", Replicas: 3, Mode: "class", Workers: 1, HealthEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	base := "http://" + rs.Addr()

	resp, body := postInstances(t, base+"/v1/proba", mixedInstances(rows))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr wireResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if pr.Predictions[i] != wantPred[i] {
			t.Fatalf("row %d: router class %d, single-node %d", i, pr.Predictions[i], wantPred[i])
		}
		for c := range wantProba[i] {
			if pr.Probabilities[i][c] != wantProba[i][c] { // bitwise through JSON
				t.Fatalf("row %d class %d: router %v, single-node %v", i, c, pr.Probabilities[i][c], wantProba[i][c])
			}
		}
	}

	// healthz reports the class placement.
	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status   string `json:"status"`
		Replicas []struct {
			State     string `json:"state"`
			ShardLow  int    `json:"shard_low"`
			ShardHigh int    `json:"shard_high"`
		} `json:"replicas"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health.Status != "ok" || len(health.Replicas) != 3 {
		t.Fatalf("healthz: %+v", health)
	}
	covered := 0
	for _, r := range health.Replicas {
		covered += r.ShardHigh - r.ShardLow
	}
	if covered != m.Classes-1 {
		t.Fatalf("shards cover %d explicit rows, want %d", covered, m.Classes-1)
	}
}

// TestServeShardedReplicaEndToEnd drives the replica-balanced tier over
// HTTP: predictions match, the fleet reloads in one coordinated call,
// and the drain admin endpoint works.
func TestServeShardedReplicaEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.nack")
	m := testModel(4, 6, 23)
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}

	rs, err := ServeSharded(m, RouterOptions{
		Addr: "127.0.0.1:0", Replicas: 2, Mode: "replica", Workers: 1,
		ModelPath: path, HealthEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	base := "http://" + rs.Addr()

	row := []float64{0.5, -1, 2, 0, 1, -0.5}
	want, err := m.Predict([][]float64{row})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postInstances(t, base+"/v1/predict", []any{row})
	var pr wireResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || pr.Predictions[0] != want[0] {
		t.Fatalf("status %d, got %+v want class %d", resp.StatusCode, pr, want[0])
	}

	// Coordinated reload bumps every replica.
	rresp, err := http.Post(base+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rr struct {
		ModelVersion int64 `json:"model_version"`
	}
	if err := json.NewDecoder(rresp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusOK || rr.ModelVersion != 2 {
		t.Fatalf("reload: status %d version %d, want 200 v2", rresp.StatusCode, rr.ModelVersion)
	}

	// Drain replica 0 through the admin endpoint; serving continues.
	dresp, err := http.Post(base+"/v1/replicas?id=0&action=drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("drain: status %d", dresp.StatusCode)
	}
	resp, _ = postInstances(t, base+"/v1/predict", []any{row})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict during drain: status %d", resp.StatusCode)
	}
	hresp, _ := http.Get(base + "/healthz")
	var health struct {
		Status string `json:"status"`
	}
	json.NewDecoder(hresp.Body).Decode(&health)
	hresp.Body.Close()
	if health.Status != "degraded" {
		t.Fatalf("healthz status %q with one drained replica, want degraded", health.Status)
	}
	// SwapReplica hot-swaps a single replica while the fleet serves.
	if _, err := rs.SwapReplica(1, testModel(4, 6, 24)); err != nil {
		t.Fatal(err)
	}
	resp, _ = postInstances(t, base+"/v1/predict", []any{row})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after single-replica swap: status %d", resp.StatusCode)
	}
}

// TestServeShardedJoinMultiServer is the multi-process topology in one
// test process: replicas as full ModelServers on their own frame
// listeners, fronted by a router joined by tcp:// address — the
// partial-logit data plane, shard discovery, and coordinated /v1/reload
// all cross the real binary wire, and the merged output stays bitwise
// identical to the single-node model. The router reads the layout from
// the members, so the same joins serve two class shards (two groups)
// and two whole models (one group of siblings, OpScores at full width).
func TestServeShardedJoinMultiServer(t *testing.T) {
	for _, tc := range []struct {
		name               string
		shardCount, groups int
	}{{"class", 2, 2}, {"replica", 0, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "model.nack")
			m := testModel(5, 8, 25)
			if err := m.Save(path); err != nil {
				t.Fatal(err)
			}

			var joins []string
			for i := 0; i < 2; i++ {
				member, err := Serve(m, ServeOptions{
					WireAddr: "127.0.0.1:0", MaxBatch: 8, Linger: 50 * time.Microsecond,
					Workers: 1, ModelPath: path, ShardIndex: i % max(tc.shardCount, 1), ShardCount: tc.shardCount,
				})
				if err != nil {
					t.Fatal(err)
				}
				defer member.Close()
				joins = append(joins, "tcp://"+member.WireAddr())
			}

			rs, err := ServeSharded(nil, RouterOptions{Addr: "127.0.0.1:0", Join: joins, HealthEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer rs.Close()
			if g := rs.Router().Pool().Groups(); len(g) != tc.groups {
				t.Fatalf("joined fleet planned as %d groups, want %d", len(g), tc.groups)
			}
			base := "http://" + rs.Addr()

			rng := rand.New(rand.NewSource(26))
			rows := make([][]float64, 6)
			for i := range rows {
				rows[i] = make([]float64, m.Features)
				for j := range rows[i] {
					rows[i][j] = rng.NormFloat64()
				}
			}
			wantPred, err := m.Predict(rows)
			if err != nil {
				t.Fatal(err)
			}
			wantProba, err := m.PredictProba(rows)
			if err != nil {
				t.Fatal(err)
			}

			for trial := 0; trial < 4; trial++ { // different picks, same bits
				resp, body := postInstances(t, base+"/v1/proba", mixedInstances(rows))
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d: %s", resp.StatusCode, body)
				}
				var pr wireResponse
				if err := json.Unmarshal(body, &pr); err != nil {
					t.Fatal(err)
				}
				for i := range rows {
					if pr.Predictions[i] != wantPred[i] {
						t.Fatalf("row %d: joined router class %d, single-node %d", i, pr.Predictions[i], wantPred[i])
					}
					for c := range wantProba[i] {
						if pr.Probabilities[i][c] != wantProba[i][c] {
							t.Fatalf("row %d class %d: joined router %v, single-node %v (delta %v)",
								i, c, pr.Probabilities[i][c], wantProba[i][c], pr.Probabilities[i][c]-wantProba[i][c])
						}
					}
				}
			}

			// Coordinated reload across both remote replicas.
			rresp, err := http.Post(base+"/v1/reload", "application/json", nil)
			if err != nil {
				t.Fatal(err)
			}
			var rr struct {
				ModelVersion int64 `json:"model_version"`
			}
			if err := json.NewDecoder(rresp.Body).Decode(&rr); err != nil {
				t.Fatal(err)
			}
			rresp.Body.Close()
			if rresp.StatusCode != http.StatusOK || rr.ModelVersion != 2 {
				t.Fatalf("reload: status %d version %d, want 200 v2", rresp.StatusCode, rr.ModelVersion)
			}
			resp, body := postInstances(t, base+"/v1/predict", []any{rows[0]})
			var pr2 wireResponse
			if err := json.Unmarshal(body, &pr2); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusOK || pr2.Predictions[0] != wantPred[0] {
				t.Fatalf("post-reload predict: status %d got %+v want %d (%s)", resp.StatusCode, pr2, wantPred[0], body)
			}
			if pr2.ModelVersion != 2 {
				t.Fatalf("post-reload model_version %d, want 2", pr2.ModelVersion)
			}
		})
	}
}

// TestServeShardedValidation covers construction-time errors.
func TestServeShardedValidation(t *testing.T) {
	if _, err := ServeSharded(nil, RouterOptions{}); err == nil {
		t.Fatal("accepted nil model without Join")
	}
	m := testModel(3, 4, 27)
	// 2 explicit class rows cannot split across 3 shards.
	if _, err := ServeSharded(m, RouterOptions{Replicas: 3, Mode: "class", HealthEvery: -1}); err == nil {
		t.Fatal("accepted more shards than explicit class rows")
	}
	if _, err := ServeSharded(m, RouterOptions{Replicas: 2, Mode: "bogus", HealthEvery: -1}); err == nil {
		t.Fatal("accepted unknown mode")
	}
	// A replica's HTTP surface is not a join address any more.
	if _, err := ServeSharded(nil, RouterOptions{Join: []string{"http://127.0.0.1:8081"}, HealthEvery: -1}); err == nil {
		t.Fatal("accepted an http:// join address")
	}
	// Shard options on the single-node server are validated too.
	if _, err := Serve(m, ServeOptions{ShardIndex: 5, ShardCount: 2, Workers: 1}); err == nil {
		t.Fatal("accepted out-of-range shard index")
	}
	// Replica mode already replicates the whole model; a per-shard
	// sibling count there is a misconfiguration, not a bigger fleet.
	if _, err := ServeSharded(m, RouterOptions{Replicas: 2, ReplicasPerShard: 2, Mode: "replica", HealthEvery: -1}); err == nil {
		t.Fatal("accepted ReplicasPerShard in replica mode")
	}
}

// TestServeShardedGridFailover drives the public R x S grid: 2 class
// shards x 2 zone-spread siblings. Scoring stays bitwise-identical to
// the single-node model, healthz reports the grid placement, draining
// one sibling leaves the shard served, draining its last sibling is
// refused with 409, and a fleet-wide Swap re-slices every member onto
// its own shard (not one shard per member).
func TestServeShardedGridFailover(t *testing.T) {
	m := testModel(5, 8, 31)
	rng := rand.New(rand.NewSource(33))
	rows := make([][]float64, 6)
	for i := range rows {
		rows[i] = make([]float64, m.Features)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	wantProba, err := m.PredictProba(rows)
	if err != nil {
		t.Fatal(err)
	}

	rs, err := ServeSharded(m, RouterOptions{
		Addr: "127.0.0.1:0", Replicas: 2, ReplicasPerShard: 2,
		Zones: []string{"zone-a", "zone-b"}, Mode: "class", Workers: 1, HealthEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	base := "http://" + rs.Addr()

	checkBitwise := func(stage string) {
		t.Helper()
		resp, body := postInstances(t, base+"/v1/proba", mixedInstances(rows))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d: %s", stage, resp.StatusCode, body)
		}
		var pr wireResponse
		if err := json.Unmarshal(body, &pr); err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			for c := range wantProba[i] {
				if pr.Probabilities[i][c] != wantProba[i][c] {
					t.Fatalf("%s: row %d class %d: grid %v, single-node %v",
						stage, i, c, pr.Probabilities[i][c], wantProba[i][c])
				}
			}
		}
	}
	checkBitwise("fresh grid")

	// healthz shows 4 members in 2 groups with spread zones and full
	// coverage.
	hresp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Shards []struct {
			Group, Healthy, Members int
		} `json:"shards"`
		Replicas []struct {
			ID    int    `json:"id"`
			Group int    `json:"group"`
			Zone  string `json:"zone"`
		} `json:"replicas"`
	}
	if err := json.NewDecoder(hresp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if health.Status != "ok" || len(health.Replicas) != 4 || len(health.Shards) != 2 {
		t.Fatalf("healthz: %+v", health)
	}
	for _, sh := range health.Shards {
		if sh.Healthy != 2 || sh.Members != 2 {
			t.Fatalf("shard %d: %d/%d healthy, want 2/2", sh.Group, sh.Healthy, sh.Members)
		}
	}
	zones := map[int]map[string]bool{}
	for _, rep := range health.Replicas {
		if zones[rep.Group] == nil {
			zones[rep.Group] = map[string]bool{}
		}
		zones[rep.Group][rep.Zone] = true
	}
	for g, zs := range zones {
		if len(zs) != 2 {
			t.Fatalf("group %d zones %v, want spread across 2", g, zs)
		}
	}

	// Drain one sibling of group 0: the shard keeps serving bitwise off
	// the survivor.
	adminPost := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(base+"/v1/replicas", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := adminPost(`{"id":0,"action":"drain"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("drain sibling: HTTP %d", resp.StatusCode)
	}
	checkBitwise("one sibling drained")
	// Its sibling is now the shard's last member: refused without force.
	if resp := adminPost(`{"id":1,"action":"drain"}`); resp.StatusCode != http.StatusConflict {
		t.Fatalf("drain last member: HTTP %d, want 409", resp.StatusCode)
	}
	if resp := adminPost(`{"id":0,"action":"undrain"}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("undrain: HTTP %d", resp.StatusCode)
	}

	// A fleet-wide hot swap re-slices each of the 4 members onto its own
	// shard and stays bitwise.
	if _, err := rs.Swap(m); err != nil {
		t.Fatal(err)
	}
	checkBitwise("after fleet swap")
}

// TestRouterInProcessProbaBitwise pins in-process class-mode proba
// bitwise to Model.PredictProba, without the HTTP edge in between.
func TestRouterInProcessProbaBitwise(t *testing.T) {
	m := testModel(4, 5, 28)
	rs, err := ServeSharded(m, RouterOptions{
		Replicas: 2, Mode: "class", Workers: 1, HealthEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	row := []float64{1, -0.5, 0, 2, 0.25}
	want, err := m.PredictProba([][]float64{row})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, m.Classes)
	cls, err := scoreRow(rs, row, got)
	if err != nil {
		t.Fatal(err)
	}
	for c := range want[0] {
		if got[c] != want[0][c] {
			t.Fatalf("class %d: router %v, model %v", c, got[c], want[0][c])
		}
	}
	wantCls, err := m.Predict([][]float64{row})
	if err != nil {
		t.Fatal(err)
	}
	if cls != wantCls[0] {
		t.Fatalf("router class %d, model %d", cls, wantCls[0])
	}
	if cls, err = scoreRow(rs, row, nil); err != nil || cls != wantCls[0] {
		t.Fatalf("predict path: class %d err %v, model %d", cls, err, wantCls[0])
	}
}
