// HTTP-surface conformance: one table of client requests run against
// both serving tiers — a single-node serve.Server and a class-mode
// router.Server over two shards of the same model — because clients
// must not be able to tell a fleet from one replica. The golden bodies
// were captured from the last commit that had two separate HTTP
// servers, except the 400 texts that were encoding/json's own, which
// are the request scanner's since it replaced that decoder; a byte of
// drift on either tier fails here.
package router_test

import (
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"newtonadmm/internal/control"
	"newtonadmm/internal/router"
	"newtonadmm/internal/serve"
	"newtonadmm/internal/wire"
)

// rejectPolicy is an admission policy that rejects everything while on,
// with a fixed retry hint so the 429 envelope is deterministic.
type rejectPolicy struct{ on atomic.Bool }

func (*rejectPolicy) Name() string { return "reject-all" }

func (p *rejectPolicy) Admit(int64, control.Priority) control.Decision {
	if !p.on.Load() {
		return control.Decision{Admit: true}
	}
	return control.Decision{Reason: control.ReasonRateLimited, RetryAfter: 1500 * time.Millisecond}
}

// edgeTier is one tier's live HTTP surface plus the two states the
// table toggles: admission rejecting everything, and the tier unable to
// serve (no model loaded / a class shard with no available member).
type edgeTier struct {
	name        string
	url         string
	reject      *rejectPolicy
	unavailable func(on bool)
}

const edgeClasses, edgeFeatures = 4, 3

func edgeTiers(t *testing.T) []*edgeTier {
	t.Helper()
	w := chaosWeights(rand.New(rand.NewSource(7)), edgeClasses, edgeFeatures)

	// Single node: the full model behind a batcher. Unavailable means an
	// empty registry, so that state is a second server.
	single := &edgeTier{name: "single", reject: new(rejectPolicy)}
	lb := chaosLocal(t, w, edgeClasses, edgeFeatures, 0, 0, "")
	t.Cleanup(lb.Close)
	bat := chaosBatcher(t, lb)
	bat.SetPolicy(single.reject)
	loaded := httptest.NewServer(serve.NewServer(lb.Registry(), bat, nil).Handler())
	t.Cleanup(loaded.Close)
	emptyReg := serve.NewRegistry()
	emptyBat := serve.NewBatcher(emptyReg, serve.BatcherConfig{})
	t.Cleanup(emptyBat.Close)
	empty := httptest.NewServer(serve.NewServer(emptyReg, emptyBat, nil).Handler())
	t.Cleanup(empty.Close)
	single.url = loaded.URL
	single.unavailable = func(on bool) {
		single.url = loaded.URL
		if on {
			single.url = empty.URL
		}
	}

	// Router: two class shards of the same weights. Unavailable means
	// shard 0's only member is drained.
	routed := &edgeTier{name: "router", reject: new(rejectPolicy)}
	backends := []router.Backend{
		chaosLocal(t, w, edgeClasses, edgeFeatures, 0, 2, ""),
		chaosLocal(t, w, edgeClasses, edgeFeatures, 1, 2, ""),
	}
	rt, err := router.New(backends, router.Options{HealthEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	rt.SetAdmission(routed.reject)
	hs := httptest.NewServer(router.NewServer(rt).Handler())
	t.Cleanup(hs.Close)
	routed.url = hs.URL
	routed.unavailable = func(on bool) {
		var err error
		if on {
			err = rt.Pool().Drain(0, time.Second)
		} else {
			err = rt.Pool().Undrain(0)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return []*edgeTier{single, routed}
}

// edgeCase is one client request and the response every tier must give.
// wantRouter overrides want where the tiers legitimately differ (the
// text of an error raised below the shared surface).
type edgeCase struct {
	name         string
	method, path string
	priority     string // X-Nadmm-Priority header
	body         string
	bigBody      bool // body is wire.MaxPayload+1 bytes of whitespace, then `body`
	reject       bool // run with admission rejecting everything
	unavailable  bool // run with the tier unable to serve
	status       int
	statusRouter int // when the tiers legitimately differ
	retryAfter   string
	want         string
	wantRouter   string
}

const (
	edgeRows  = `{"instances":[[0.5,-1,2],{"indices":[0,2],"values":[1.5,-2]}]}`
	edgeProba = `{"predictions":[1,2],"probabilities":[[0.2611894765615357,0.45842724707941973,0.1653507051370092,0.11503257122203533],[0.002546099714357379,0.002561475316880566,0.9716353898564308,0.023257035112331195]],"model_version":1}` + "\n"
)

var edgeCases = []edgeCase{
	{name: "GET predict", method: "GET", path: "/v1/predict", status: 405,
		want: `{"error":"use POST"}` + "\n"},
	{name: "bad JSON", method: "POST", path: "/v1/predict", body: `{"instances":[`, status: 400,
		want: `{"error":"bad request body: offset 14: unexpected end of input, want an element or ']'"}` + "\n"},
	{name: "empty instances", method: "POST", path: "/v1/predict", body: `{"instances":[]}`, status: 400,
		want: `{"error":"no instances"}` + "\n"},
	{name: "unknown sparse key", method: "POST", path: "/v1/predict",
		body: `{"instances":[{"idx":[1],"vals":[1]}]}`, status: 400,
		want: `{"error":"instance 0: offset 15: unknown sparse key \"idx\""}` + "\n"},
	// These three were scored, not refused, while encoding/json decoded
	// requests (DESIGN.md "Request grammar").
	{name: "null element", method: "POST", path: "/v1/predict", body: `{"instances":[[1,null,2]]}`, status: 400,
		want: `{"error":"instance 0: offset 17: unexpected 'n', want a number"}` + "\n"},
	{name: "case-folded duplicate sparse key", method: "POST", path: "/v1/predict",
		body: `{"instances":[{"indices":[0],"values":[1],"Indices":[2]}]}`, status: 400,
		want: `{"error":"instance 0: offset 42: unknown sparse key \"Indices\""}` + "\n"},
	{name: "trailing garbage", method: "POST", path: "/v1/predict", body: `{"instances":[[1,2,3]]} trailing garbage`, status: 400,
		want: `{"error":"bad request body: offset 24: trailing data after the request object"}` + "\n"},
	// The rest of the grammar's edges: known keys once, unknown top-level
	// members skipped.
	{name: "duplicate instances", method: "POST", path: "/v1/predict", body: `{"instances":[[1,2,3]],"instances":[[1,2,3]]}`, status: 400,
		want: `{"error":"bad request body: offset 23: duplicate key \"instances\""}` + "\n"},
	{name: "unknown top-level member", method: "POST", path: "/v1/predict", body: `{"id":"r1","instances":[[0.5,-1,2]],"parameters":{"k":[null]}}`, status: 200,
		want: `{"predictions":[1],"model_version":1}` + "\n"},
	{name: "scalar instance", method: "POST", path: "/v1/predict", body: `{"instances":["nope"]}`, status: 400,
		want: `{"error":"instance 0: instance must be an array or an {indices, values} object"}` + "\n"},
	{name: "empty sparse object", method: "POST", path: "/v1/predict", body: `{"instances":[{}]}`, status: 400,
		want: `{"error":"instance 0: sparse instance needs both \"indices\" and \"values\""}` + "\n"},
	{name: "all-zero sparse row", method: "POST", path: "/v1/predict",
		body: `{"instances":[{"indices":[],"values":[]}]}`, status: 200,
		want: `{"predictions":[3],"model_version":1}` + "\n"},
	{name: "short dense row", method: "POST", path: "/v1/predict", body: `{"instances":[[1,2]]}`, status: 400,
		want:       `{"error":"instance 0: serve: row 0 has 2 features, model expects 3"}` + "\n",
		wantRouter: `{"error":"router: shard group 0: serve: row 0 has 2 features, model expects 3"}` + "\n"},
	{name: "bad priority", method: "POST", path: "/v1/predict", priority: "urgent", body: edgeRows, status: 400,
		want: `{"error":"X-Nadmm-Priority: control: unknown priority \"urgent\" (want interactive, batch, or background)"}` + "\n"},
	{name: "oversized body", method: "POST", path: "/v1/predict", bigBody: true, body: `{"instances":[]}`, status: 413,
		want: `{"error":"bad request body: http: request body too large"}` + "\n"},
	{name: "predict", method: "POST", path: "/v1/predict", priority: "batch", body: edgeRows, status: 200,
		want: `{"predictions":[1,2],"model_version":1}` + "\n"},
	{name: "proba row width", method: "POST", path: "/v1/proba", body: edgeRows, status: 200, want: edgeProba},
	{name: "429 reason and Retry-After", method: "POST", path: "/v1/predict", body: edgeRows, reject: true,
		status: 429, retryAfter: "2",
		want:       `{"error":"instance 0: serve: admission rejected (rate_limited, retry after 1.5s)","reason":"rate_limited"}` + "\n",
		wantRouter: `{"error":"serve: admission rejected (rate_limited, retry after 1.5s)","reason":"rate_limited"}` + "\n"},
	{name: "503 unavailable", method: "POST", path: "/v1/predict", body: edgeRows, unavailable: true, status: 503,
		want:       `{"error":"no model loaded"}` + "\n",
		wantRouter: `{"error":"router: shard group 0: router: class shard unavailable: group [0,2) has no available member"}` + "\n"},
	{name: "healthz", method: "GET", path: "/healthz", status: 200,
		want:       `{"model":{"version":1,"classes":4,"features":3,"T":0},"status":"ok","T":0}` + "\n",
		wantRouter: `{"model":{"version":1,"classes":4,"features":3},"replicas":[{"id":0,"group":0,"state":"healthy","version":1,"in_flight":0,"shard_high":2},{"id":1,"group":1,"state":"healthy","version":1,"in_flight":0,"shard_low":2,"shard_high":3}],"shards":[{"group":0,"low":0,"high":2,"healthy":1,"members":1},{"group":1,"low":2,"high":3,"healthy":1,"members":1}],"status":"ok","T":0}` + "\n"},
	{name: "healthz unavailable", method: "GET", path: "/healthz", unavailable: true, status: 503,
		want:       `{"status":"no model"}` + "\n",
		wantRouter: `{"model":{"version":1,"classes":4,"features":3},"replicas":[{"id":0,"group":0,"state":"draining","version":1,"in_flight":0,"shard_high":2},{"id":1,"group":1,"state":"healthy","version":1,"in_flight":0,"shard_low":2,"shard_high":3}],"shards":[{"group":0,"low":0,"high":2,"healthy":0,"members":1},{"group":1,"low":2,"high":3,"healthy":1,"members":1}],"status":"unserviceable","T":0}` + "\n"},
	{name: "GET reload", method: "GET", path: "/v1/reload", status: 405,
		want: `{"error":"use POST"}` + "\n"},
	// Last: the router's reload succeeds and bumps the model version.
	{name: "reload", method: "POST", path: "/v1/reload", status: 501, statusRouter: 200,
		want:       `{"error":"no reloader configured (start the server with a model path)"}` + "\n",
		wantRouter: `{"model_version":2,"status":"reloaded"}` + "\n"},
}

// wallClock matches the wall-clock-dependent fields of /healthz; the
// goldens carry "T":0 in their place. A replica's model object has a
// loaded_at; the router's, a fleet summary never loaded itself, has
// none.
var wallClock = regexp.MustCompile(`"uptime_seconds":[0-9.e+-]+|"loaded_at":"[^"]*"`)

// spaces is an endless reader of JSON whitespace.
type spaces struct{}

func (spaces) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = ' '
	}
	return len(p), nil
}

func TestHTTPSurfaceConformance(t *testing.T) {
	for _, tier := range edgeTiers(t) {
		for _, c := range edgeCases {
			t.Run(tier.name+"/"+c.name, func(t *testing.T) {
				tier.reject.on.Store(c.reject)
				defer tier.reject.on.Store(false)
				if c.unavailable {
					tier.unavailable(true)
					defer tier.unavailable(false)
				}
				var body io.Reader = strings.NewReader(c.body)
				if c.bigBody {
					body = io.MultiReader(io.LimitReader(spaces{}, wire.MaxPayload+1), body)
				}
				req, err := http.NewRequest(c.method, tier.url+c.path, body)
				if err != nil {
					t.Fatal(err)
				}
				if c.priority != "" {
					req.Header.Set(serve.PriorityHeader, c.priority)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				got, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				got = wallClock.ReplaceAll(got, []byte(`"T":0`))
				status, want := c.status, c.want
				if tier.name == "router" && c.wantRouter != "" {
					want = c.wantRouter
				}
				if tier.name == "router" && c.statusRouter != 0 {
					status = c.statusRouter
				}
				if resp.StatusCode != status || string(got) != want {
					t.Errorf("%s %s: status %d body %q\nwant status %d body %q", c.method, c.path, resp.StatusCode, got, status, want)
				}
				if ra := resp.Header.Get("Retry-After"); ra != c.retryAfter {
					t.Errorf("Retry-After %q, want %q", ra, c.retryAfter)
				}
				if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
					t.Errorf("Content-Type %q", ct)
				}
			})
		}
	}
}

// metricRows are the metric family names each tier's /metricz must keep
// exposing (dashboards and the repository benchmark scrape them by
// name); labels and values are stripped.
var metricRows = map[string]string{
	"single": "nadmm_admission_active nadmm_admission_rejected_total nadmm_batch_rows_mean nadmm_batch_size_max nadmm_batch_size_p50 nadmm_batches_total nadmm_device_bytes_total nadmm_device_flops_total nadmm_device_launches_total nadmm_goroutines nadmm_model_version nadmm_priority_queue_depth nadmm_request_latency_count nadmm_request_latency_max_seconds nadmm_request_latency_mean_seconds nadmm_request_latency_p50_seconds nadmm_request_latency_p95_seconds nadmm_request_latency_p99_seconds nadmm_requests_rejected_total nadmm_requests_submitted_total nadmm_requests_total nadmm_stage_execute_count nadmm_stage_execute_max_seconds nadmm_stage_execute_mean_seconds nadmm_stage_execute_p50_seconds nadmm_stage_execute_p95_seconds nadmm_stage_execute_p99_seconds nadmm_stage_linger_count nadmm_stage_linger_max_seconds nadmm_stage_linger_mean_seconds nadmm_stage_linger_p50_seconds nadmm_stage_linger_p95_seconds nadmm_stage_linger_p99_seconds nadmm_stage_queue_count nadmm_stage_queue_max_seconds nadmm_stage_queue_mean_seconds nadmm_stage_queue_p50_seconds nadmm_stage_queue_p95_seconds nadmm_stage_queue_p99_seconds nadmm_uptime_seconds",
	"router": "nadmm_admission_active nadmm_admission_rejected_total nadmm_coverage nadmm_failovers_total nadmm_goroutines nadmm_leg_latency_count nadmm_leg_latency_max_seconds nadmm_leg_latency_mean_seconds nadmm_leg_latency_p50_seconds nadmm_leg_latency_p95_seconds nadmm_leg_latency_p99_seconds nadmm_model_version nadmm_replica_done_total nadmm_replica_errors_total nadmm_replica_inflight nadmm_replica_rejected_total nadmm_replica_state nadmm_request_latency_count nadmm_request_latency_max_seconds nadmm_request_latency_mean_seconds nadmm_request_latency_p50_seconds nadmm_request_latency_p95_seconds nadmm_request_latency_p99_seconds nadmm_requests_rejected_total nadmm_requests_total nadmm_shard_healthy nadmm_shard_members nadmm_skew_retries_total nadmm_stage_merge_count nadmm_stage_merge_max_seconds nadmm_stage_merge_mean_seconds nadmm_stage_merge_p50_seconds nadmm_stage_merge_p95_seconds nadmm_stage_merge_p99_seconds nadmm_stage_scatter_count nadmm_stage_scatter_max_seconds nadmm_stage_scatter_mean_seconds nadmm_stage_scatter_p50_seconds nadmm_stage_scatter_p95_seconds nadmm_stage_scatter_p99_seconds nadmm_uptime_seconds",
}

func TestMetriczRowNames(t *testing.T) {
	for _, tier := range edgeTiers(t) {
		resp, err := http.Get(tier.url + "/metricz")
		if err != nil {
			t.Fatal(err)
		}
		text, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, line := range strings.Split(string(text), "\n") {
			if line == "" || line[0] == '#' {
				continue
			}
			seen[line[:strings.IndexAny(line, "{ ")]] = true
		}
		var names []string
		for n := range seen {
			names = append(names, n)
		}
		sort.Strings(names)
		if got := strings.Join(names, " "); got != metricRows[tier.name] {
			t.Errorf("%s /metricz rows:\n%s\nwant:\n%s", tier.name, got, metricRows[tier.name])
		}
	}
}
