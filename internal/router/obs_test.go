package router

import (
	"bufio"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"newtonadmm/internal/obs"
	"newtonadmm/internal/serve"
	"newtonadmm/internal/wire"
)

// TestRouterPredictZeroAlloc pins the acceptance bound from DESIGN.md
// "Observability": the scatter path — StartTrace, Predict, FinishTrace —
// performs zero heap allocations per request at the default 1-in-8
// sampling stride, over one group of whole models and over a two-group
// class grid. Published traces occupy ring
// slots until displacement recycling begins, so the warm-up pushes
// enough sampled requests through to fill the recorder ring first.
func TestRouterPredictZeroAlloc(t *testing.T) {
	cases := []struct {
		name     string
		backends func() []Backend
	}{
		{"replica", func() []Backend {
			return []Backend{newFakeBackend(4, 8), newFakeBackend(4, 8)}
		}},
		{"class", func() []Backend {
			return []Backend{gridFake(0, 2, 5, ""), gridFake(2, 4, 5, "")}
		}},
	}
	if raceEnabled {
		t.Skip("allocation counts are skewed by -race instrumentation")
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rt, err := New(tc.backends(), Options{HealthEvery: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()

			b := oneRowBatch(8)
			out := make([]int, 1)
			call := func() {
				b.Trace = rt.StartTrace(time.Now())
				if err := rt.Predict(b, out); err != nil {
					t.Fatal(err)
				}
				rt.FinishTrace(b.Trace, time.Now())
				b.Trace = nil
			}
			for i := 0; i < obs.DefaultRingSize*serve.DefaultSampleEvery*2; i++ {
				call()
			}
			if allocs := testing.AllocsPerRun(400, call); allocs != 0 {
				t.Fatalf("%s Predict: %.2f allocs/op at default sampling, want 0", tc.name, allocs)
			}
		})
	}
}

// findTrace locates a published trace by ID on a recorder, checking
// both the recent ring and the slowest-request slot (a lone finished
// trace lands in the slow slot, not the ring).
func findTrace(rec *obs.Recorder, id uint64) (obs.TraceView, bool) {
	if v, ok := rec.PeekSlowest(); ok && v.ID == id {
		return v, true
	}
	for _, v := range rec.Snapshot() {
		if v.ID == id {
			return v, true
		}
	}
	return obs.TraceView{}, false
}

// hasStage reports whether the view recorded at least one span of the
// given stage.
func hasStage(v obs.TraceView, stage obs.Stage) bool {
	for _, s := range v.Spans {
		if s.Stage == stage {
			return true
		}
	}
	return false
}

// TestStitchedTraceAcrossBinaryPlane asserts that a sampled request's
// trace stitches across the binary frame plane: the NAWP trace trailer
// carries the origin's trace ID to the replica, whose recorder publishes
// a Remote trace under the SAME ID, and the replica's sequential span
// sum fits inside the end-to-end latency the origin measured. Two rows:
// a router scattering OpScores to a replica's FrameServer (an execute
// span; OpScores runs on the predictor directly), and an OpProba frame
// sent straight to the FrameServer, the single-node binary surface,
// whose batcher adds the queue span.
func TestStitchedTraceAcrossBinaryPlane(t *testing.T) {
	const classes, features = 4, 8
	rng := rand.New(rand.NewSource(99))
	w := randWeights(rng, classes, features)
	fr := startFrameReplica(t, w, classes, features, 0, 0)
	defer fr.close()

	t.Run("router-scores", func(t *testing.T) {
		tb := &TCPBackend{Addr: fr.addr()}
		defer tb.Close()
		rt, err := New([]Backend{tb}, Options{HealthEvery: -1, SampleEvery: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()

		b := oneRowBatch(features)
		out := make([]int, 1)
		t0 := time.Now()
		tr := rt.StartTrace(t0)
		if tr == nil {
			t.Fatal("SampleEvery=1 must sample every request")
		}
		id := tr.ID // save before FinishTrace: the trace may be recycled after publish
		b.Trace = tr
		if err := rt.Predict(b, out); err != nil {
			t.Fatal(err)
		}
		rt.FinishTrace(tr, time.Now())
		e2e := time.Since(t0)

		routerView, ok := findTrace(rt.Recorder(), id)
		if !ok {
			t.Fatalf("router trace %016x not published", id)
		}
		if routerView.Remote {
			t.Fatal("router-originated trace marked Remote")
		}
		if !hasStage(routerView, obs.StageScatter) {
			t.Fatalf("router trace has no scatter-leg span: %+v", routerView.Spans)
		}
		checkReplicaTrace(t, fr.bat.Recorder(), id, e2e, obs.StageExecute)
	})

	t.Run("frame-proba", func(t *testing.T) {
		c, err := net.Dial("tcp", fr.addr())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		const id = 0x5eed_0001_0002_0003
		var enc wire.Encoder
		enc.Begin(wire.OpProba, 7)
		enc.BatchHeader(1, features, 0)
		enc.DenseRow(oneRowBatch(features).Dense[0])
		enc.TraceTrailer(id, true)
		t0 := time.Now()
		if _, err := c.Write(enc.Bytes()); err != nil {
			t.Fatal(err)
		}
		h, _, err := wire.NewReader(bufio.NewReader(c)).Next()
		if err != nil {
			t.Fatal(err)
		}
		e2e := time.Since(t0)
		if h.Op != wire.OpProbaResp || h.Corr != 7 {
			t.Fatalf("response op %#x corr %d, want %#x corr 7", h.Op, h.Corr, wire.OpProbaResp)
		}
		checkReplicaTrace(t, fr.bat.Recorder(), id, e2e, obs.StageQueue, obs.StageExecute)
	})
}

// checkReplicaTrace waits for the replica's recorder to publish trace
// id and asserts it is Remote, holds a span of every wanted stage,
// dropped none, and its span sum fits inside e2e.
func checkReplicaTrace(t *testing.T, rec *obs.Recorder, id uint64, e2e time.Duration, want ...obs.Stage) {
	t.Helper()
	// The replica publishes its trace before the response frame is
	// written, but poll briefly anyway so scheduler jitter cannot flake
	// the test.
	var v obs.TraceView
	var ok bool
	deadline := time.Now().Add(2 * time.Second)
	for {
		if v, ok = findTrace(rec, id); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica trace %016x never published", id)
		}
		time.Sleep(time.Millisecond)
	}
	if !v.Remote {
		t.Fatal("replica-side trace not marked Remote: stitching by ID would double-count it as an origin")
	}
	for _, stage := range want {
		if !hasStage(v, stage) {
			t.Fatalf("replica trace missing its %v span: %+v", stage, v.Spans)
		}
	}
	// The replica's stages are sequential slices of the origin-observed
	// round trip, so their sum must fit inside the e2e latency.
	var sum time.Duration
	for _, s := range v.Spans {
		sum += s.Dur
	}
	if sum > e2e {
		t.Fatalf("replica span sum %v exceeds end-to-end latency %v", sum, e2e)
	}
	if v.Dropped != 0 {
		t.Fatalf("replica trace dropped %d spans", v.Dropped)
	}
}

// poolExposition is the /metricz text of the pool's per-shard and
// per-replica families on an untouched 2×2 class grid: names, labels,
// HELP/TYPE comments and order. bench/fleet.go parses the
// nadmm_leg_latency rows by replica label, so a byte of drift here
// breaks its scrape.
const poolExposition = `# HELP nadmm_shard_healthy healthy members in this shard group
# TYPE nadmm_shard_healthy gauge
nadmm_shard_healthy{shard="0"} 2
nadmm_shard_healthy{shard="1"} 2
# TYPE nadmm_shard_members gauge
nadmm_shard_members{shard="0"} 2
nadmm_shard_members{shard="1"} 2
# HELP nadmm_replica_state routing state: 1 healthy, 0 draining, -1 down
# TYPE nadmm_replica_state gauge
nadmm_replica_state{replica="0"} 1
nadmm_replica_state{replica="1"} 1
nadmm_replica_state{replica="2"} 1
nadmm_replica_state{replica="3"} 1
# TYPE nadmm_replica_done_total counter
nadmm_replica_done_total{replica="0"} 0
nadmm_replica_done_total{replica="1"} 0
nadmm_replica_done_total{replica="2"} 0
nadmm_replica_done_total{replica="3"} 0
# TYPE nadmm_replica_errors_total counter
nadmm_replica_errors_total{replica="0"} 0
nadmm_replica_errors_total{replica="1"} 0
nadmm_replica_errors_total{replica="2"} 0
nadmm_replica_errors_total{replica="3"} 0
# TYPE nadmm_replica_rejected_total counter
nadmm_replica_rejected_total{replica="0"} 0
nadmm_replica_rejected_total{replica="1"} 0
nadmm_replica_rejected_total{replica="2"} 0
nadmm_replica_rejected_total{replica="3"} 0
# TYPE nadmm_replica_inflight gauge
nadmm_replica_inflight{replica="0"} 0
nadmm_replica_inflight{replica="1"} 0
nadmm_replica_inflight{replica="2"} 0
nadmm_replica_inflight{replica="3"} 0
nadmm_leg_latency_count{replica="0"} 0
nadmm_leg_latency_mean_seconds{replica="0"} 0.000000000
nadmm_leg_latency_p50_seconds{replica="0"} 0.000000000
nadmm_leg_latency_p95_seconds{replica="0"} 0.000000000
nadmm_leg_latency_p99_seconds{replica="0"} 0.000000000
nadmm_leg_latency_max_seconds{replica="0"} 0.000000000
nadmm_leg_latency_count{replica="1"} 0
nadmm_leg_latency_mean_seconds{replica="1"} 0.000000000
nadmm_leg_latency_p50_seconds{replica="1"} 0.000000000
nadmm_leg_latency_p95_seconds{replica="1"} 0.000000000
nadmm_leg_latency_p99_seconds{replica="1"} 0.000000000
nadmm_leg_latency_max_seconds{replica="1"} 0.000000000
nadmm_leg_latency_count{replica="2"} 0
nadmm_leg_latency_mean_seconds{replica="2"} 0.000000000
nadmm_leg_latency_p50_seconds{replica="2"} 0.000000000
nadmm_leg_latency_p95_seconds{replica="2"} 0.000000000
nadmm_leg_latency_p99_seconds{replica="2"} 0.000000000
nadmm_leg_latency_max_seconds{replica="2"} 0.000000000
nadmm_leg_latency_count{replica="3"} 0
nadmm_leg_latency_mean_seconds{replica="3"} 0.000000000
nadmm_leg_latency_p50_seconds{replica="3"} 0.000000000
nadmm_leg_latency_p95_seconds{replica="3"} 0.000000000
nadmm_leg_latency_p99_seconds{replica="3"} 0.000000000
nadmm_leg_latency_max_seconds{replica="3"} 0.000000000`

func TestPoolExposition(t *testing.T) {
	const classes, features = 5, 6
	w := randWeights(rand.New(rand.NewSource(11)), classes, features)
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
	hs := httptest.NewServer(NewServer(rt).Handler())
	defer hs.Close()
	resp, err := http.Get(hs.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	want := poolExposition + "\n"
	i := strings.Index(string(text), "# HELP nadmm_shard_healthy ")
	if i < 0 || !strings.HasPrefix(string(text[i:]), want) {
		t.Fatalf("/metricz pool families drifted; got:\n%s", text)
	}
}
