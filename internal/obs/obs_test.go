package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("nadmm_requests_total", "", "completed requests")
	c.Add(3)
	r.GaugeFunc("nadmm_model_version", "", "current model version", func() float64 { return 2 })
	r.GaugeFunc("nadmm_replica_state", Label("replica", "0"), "replica state", func() float64 { return 1 })
	r.GaugeFunc("nadmm_replica_state", Label("replica", "1"), "replica state", func() float64 { return 0 })
	h := NewHistogram()
	h.Observe(2 * time.Millisecond)
	r.Duration("nadmm_request_latency", "", "sampled end-to-end latency", h)

	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()

	for _, want := range []string{
		"# TYPE nadmm_requests_total counter",
		"nadmm_requests_total 3",
		"nadmm_model_version 2",
		`nadmm_replica_state{replica="0"} 1`,
		`nadmm_replica_state{replica="1"} 0`,
		"nadmm_request_latency_count 1",
		"nadmm_request_latency_p50_seconds 0.002",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// HELP/TYPE once per family even with several labeled rows.
	if n := strings.Count(out, "# HELP nadmm_replica_state"); n != 1 {
		t.Fatalf("HELP emitted %d times, want 1:\n%s", n, out)
	}
}

// TestRegistryDurationSummary pins the six summary rows a Duration
// renders, bare and labelled — the labelled form is the router's
// per-replica leg latency.
func TestRegistryDurationSummary(t *testing.T) {
	h := NewHistogram()
	h.Observe(time.Millisecond)
	r := NewRegistry()
	r.Duration("request_latency", "", "", h)
	r.Duration("leg_latency", Label("replica", "3"), "", h)
	var sb strings.Builder
	r.WriteText(&sb)
	want := "request_latency_count 1\n" +
		"request_latency_mean_seconds 0.001000000\n" +
		"request_latency_p50_seconds 0.001000000\n" +
		"request_latency_p95_seconds 0.001000000\n" +
		"request_latency_p99_seconds 0.001000000\n" +
		"request_latency_max_seconds 0.001000000\n" +
		`leg_latency_count{replica="3"} 1` + "\n" +
		`leg_latency_mean_seconds{replica="3"} 0.001000000` + "\n" +
		`leg_latency_p50_seconds{replica="3"} 0.001000000` + "\n" +
		`leg_latency_p95_seconds{replica="3"} 0.001000000` + "\n" +
		`leg_latency_p99_seconds{replica="3"} 0.001000000` + "\n" +
		`leg_latency_max_seconds{replica="3"} 0.001000000` + "\n"
	if got := sb.String(); got != want {
		t.Fatalf("summary rows:\n%s\nwant:\n%s", got, want)
	}
}

func TestRegistryGaugeFormatting(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("g_int", "", "", func() float64 { return 42 })
	r.GaugeFunc("g_frac", "", "", func() float64 { return 1.5 })
	var sb strings.Builder
	r.WriteText(&sb)
	if !strings.Contains(sb.String(), "g_int 42\n") {
		t.Fatalf("integral gauge not rendered bare: %s", sb.String())
	}
	if !strings.Contains(sb.String(), "g_frac 1.5\n") {
		t.Fatalf("fractional gauge mangled: %s", sb.String())
	}
}

func TestRecorderPublishAndSnapshot(t *testing.T) {
	r := NewRecorder(4)
	base := time.Now()
	// Non-monotonic durations: the 9ms outlier goes to the slow slot,
	// the rest cycle through the recent ring.
	durs := []time.Duration{5, 1, 9, 2, 3, 2, 4, 1, 2, 3}
	for i, d := range durs {
		at := base.Add(time.Duration(i) * time.Second)
		tr := r.Start(at)
		tr.AddSpan(StageQueue, -1, 0, at, time.Microsecond)
		r.Finish(tr, at.Add(d*time.Millisecond))
	}
	if got := r.Finished(); got != uint64(len(durs)) {
		t.Fatalf("Finished = %d, want %d", got, len(durs))
	}
	slow, ok := r.TakeSlowest()
	if !ok || slow.Total != 9*time.Millisecond {
		t.Fatalf("slowest = %+v ok=%v, want total 9ms", slow, ok)
	}
	if _, ok := r.TakeSlowest(); ok {
		t.Fatal("TakeSlowest did not reset the window")
	}
	recent := r.Snapshot()
	if len(recent) != 4 {
		t.Fatalf("Snapshot returned %d traces, ring size is 4", len(recent))
	}
	// Newest first, and a second scrape still sees them (CAS-restore).
	if !recent[0].Begin.After(recent[len(recent)-1].Begin) {
		t.Fatalf("Snapshot not newest-first: %v ... %v", recent[0].Begin, recent[len(recent)-1].Begin)
	}
	if len(r.Snapshot()) != 4 {
		t.Fatal("second Snapshot lost ring contents")
	}
}

func TestRecorderRemoteAdoptsID(t *testing.T) {
	r := NewRecorder(2)
	at := time.Now()
	tr := r.StartRemote(0xdeadbeef, at)
	if !tr.Remote || tr.ID != 0xdeadbeef {
		t.Fatalf("StartRemote: %+v", tr)
	}
	r.Finish(tr, at.Add(time.Millisecond))
	slow, ok := r.TakeSlowest()
	if !ok || slow.ID != 0xdeadbeef || !slow.Remote {
		t.Fatalf("slowest = %+v ok=%v", slow, ok)
	}
}

func TestSpanOverflowDropsNotGrows(t *testing.T) {
	r := NewRecorder(2)
	at := time.Now()
	tr := r.Start(at)
	for i := 0; i < MaxSpans+5; i++ {
		tr.AddSpan(StageScatter, i, 0, at, time.Microsecond)
	}
	if len(tr.Spans()) != MaxSpans {
		t.Fatalf("spans = %d, want %d", len(tr.Spans()), MaxSpans)
	}
	if tr.Dropped() != 5 {
		t.Fatalf("dropped = %d, want 5", tr.Dropped())
	}
	r.Finish(tr, at.Add(time.Millisecond))
}

// TestRecorderConcurrent exercises the ownership handoff under -race:
// concurrent publishers (with concurrent span writers per trace, the
// scatter-leg shape) against concurrent scrapers.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder(8)
	var publishers, scraper sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		publishers.Add(1)
		go func() {
			defer publishers.Done()
			for i := 0; i < 500; i++ {
				at := time.Now()
				tr := r.Start(at)
				var legs sync.WaitGroup
				for leg := 0; leg < 3; leg++ {
					legs.Add(1)
					go func(leg int) {
						defer legs.Done()
						tr.AddSpan(StageScatter, leg, 0, at, time.Microsecond)
					}(leg)
				}
				legs.Wait()
				r.Finish(tr, time.Now())
			}
		}()
	}
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, v := range r.Snapshot() {
				_ = v.Spans
			}
			r.TakeSlowest()
			r.PeekSlowest()
		}
	}()
	publishers.Wait()
	close(stop)
	scraper.Wait()
}

func TestRecorderSteadyStateZeroAlloc(t *testing.T) {
	r := NewRecorder(8)
	at := time.Now()
	// Warm the pool and fill the ring so Finish recycles.
	for i := 0; i < 64; i++ {
		tr := r.Start(at)
		tr.AddSpan(StageQueue, -1, 0, at, time.Microsecond)
		r.Finish(tr, at.Add(time.Millisecond))
	}
	r.TakeSlowest()
	allocs := testing.AllocsPerRun(200, func() {
		tr := r.Start(at)
		tr.AddSpan(StageQueue, -1, 0, at, time.Microsecond)
		tr.AddSpan(StageExecute, -1, 0, at, time.Microsecond)
		r.Finish(tr, at.Add(time.Microsecond))
	})
	if allocs != 0 {
		t.Fatalf("trace start/span/finish allocates %.1f/op, want 0", allocs)
	}
}

func TestTracezHandler(t *testing.T) {
	r := NewRecorder(4)
	at := time.Now()
	tr := r.StartRemote(0x00ab, at)
	tr.AddSpan(StageQueue, -1, 0, at, 50*time.Microsecond)
	tr.AddSpan(StageExecute, -1, 0, at.Add(60*time.Microsecond), 40*time.Microsecond)
	r.Finish(tr, at.Add(120*time.Microsecond))
	tr2 := r.Start(at)
	tr2.AddSpan(StageDecode, -1, 0, at, 4*time.Microsecond)
	tr2.AddSpan(StageScatter, 1, 2, at.Add(4*time.Microsecond), 10*time.Microsecond)
	r.Finish(tr2, at.Add(15*time.Microsecond))

	rec := httptest.NewRecorder()
	TracezHandler(r).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/tracez", nil))
	body := rec.Body.String()
	for _, want := range []string{
		"trace id=00000000000000ab origin=remote",
		"queue",
		"execute",
		"decode",
		"scatter leg=1 try=2",
		"slowest since last scrape:",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("tracez missing %q:\n%s", want, body)
		}
	}
}
