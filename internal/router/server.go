package router

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"newtonadmm/internal/control"
	"newtonadmm/internal/obs"
	"newtonadmm/internal/serve"
	"newtonadmm/internal/wire"
)

// Server is the router's HTTP surface: the same serve.Server a single
// replica exposes — so clients cannot tell a fleet from one replica —
// scoring through the router, with tier readiness and per-replica
// states on /healthz, the router's counters and per-replica breakdown
// on /metricz, /v1/reload as a coordinated hot swap across all
// replicas, plus the one router-only endpoint:
//
//	POST /v1/replicas   admin: {"id":N,"action":"drain"|"undrain"}
type Server struct {
	*serve.Server
	rt *Router
}

// NewServer wires the router's HTTP surface.
func NewServer(rt *Router) *Server {
	s := &Server{rt: rt}
	s.Server = serve.NewTierServer(&routerTier{rt: rt, latency: obs.NewHistogram()}, rt.Recorder(), rt.Reload)
	// Tier unavailability (no replicas, shard down, version skew, replica
	// unreachable) is transient like the single-node 503s.
	s.MapStatus(http.StatusServiceUnavailable, ErrNoReplicas, ErrShardUnavailable, ErrVersionSkew, ErrReplicaUnreachable)
	s.HandleFunc("/v1/replicas", s.handleReplicas)
	return s
}

// routerTier is the scatter-gather serve.Tier: a request's rows become
// one Batch scored by Router.Predict/Proba.
type routerTier struct {
	rt *Router
	// latency is the sampled client-request end-to-end latency at the
	// router tier (same sampling tick as trace capture).
	latency *obs.Histogram
}

func (t *routerTier) Shape() (classes int, version int64, ok bool) {
	return t.rt.Classes(), t.rt.Version(), true
}

// Score starts the request's trace here, at the fleet's edge; trace
// capture and the tier latency histogram (Finish) share its one
// sampling tick.
func (t *routerTier) Score(rows *wire.Batch, pri control.Priority, start time.Time, preds []int, proba []float64) (*obs.Trace, error) {
	b := Batch{Batch: *rows, Trace: t.rt.StartTrace(start), Priority: pri}
	if proba != nil {
		return b.Trace, t.rt.Proba(&b, proba, preds)
	}
	return b.Trace, t.rt.Predict(&b, preds)
}

func (t *routerTier) Finish(tr *obs.Trace, start time.Time) {
	t.latency.Observe(time.Since(start))
	t.rt.FinishTrace(tr, time.Now())
}

// stateValue maps a replica routing state to its gauge encoding:
// 1 healthy, 0 draining, -1 down.
func stateValue(st State) float64 {
	switch st {
	case StateHealthy:
		return 1
	case StateDraining:
		return 0
	default:
		return -1
	}
}

// Metrics wires the router tier's canonical metric rows (the name table
// in DESIGN.md "Observability") over the router's and pool's live
// counters. Scrapes read atomics; nothing is locked against the request
// path.
func (t *routerTier) Metrics(o *obs.Registry) {
	rt := t.rt
	o.CounterFunc("nadmm_requests_total", "", "client requests routed (unit: requests; a replica's figure counts rows)",
		func() uint64 { return uint64(rt.requests.Load()) })
	o.CounterFunc("nadmm_requests_rejected_total", "", "scatter legs rejected by replica backpressure",
		func() uint64 {
			var n int64
			for _, rep := range rt.Pool().Replicas() {
				n += rep.rejected.Load()
			}
			return uint64(n)
		})
	o.GaugeFunc("nadmm_router_mode", obs.Label("mode", string(rt.Mode())), "routing mode in effect (always 1; the mode is the label)",
		func() float64 { return 1 })
	o.CounterFunc("nadmm_failovers_total", "", "scatter legs retried on a sibling after a replica failure",
		func() uint64 { return uint64(rt.failovers.Load()) })
	o.CounterFunc("nadmm_skew_retries_total", "", "class-sharded gathers retried for cross-shard version skew",
		func() uint64 { return uint64(rt.skewRetry.Load()) })
	o.GaugeFunc("nadmm_coverage", "", "shard coverage: 1 ok, 0.5 degraded, 0 unserviceable", func() float64 {
		switch cov, _ := rt.Pool().Coverage(); cov {
		case "ok":
			return 1
		case "degraded":
			return 0.5
		default:
			return 0
		}
	})
	o.GaugeFunc("nadmm_model_version", "", "model snapshot version the router plans against",
		func() float64 { return float64(rt.Version()) })
	for _, reason := range []control.Reason{control.ReasonQueueFull, control.ReasonRateLimited, control.ReasonCostRejected} {
		reason := reason
		o.CounterFunc("nadmm_admission_rejected_total", obs.Label("reason", reason.String()),
			"client requests rejected at the router's admission seam, by machine-readable reason",
			func() uint64 { return rt.AdmissionStats().Count(reason) })
	}
	o.GaugeFunc("nadmm_admission_active", "", "1 when an admission policy is installed at the router",
		func() float64 {
			if rt.Admission() != nil {
				return 1
			}
			return 0
		})
	// The pool's membership changes at runtime (autoscaling), so the
	// per-shard and per-replica families render through a scrape-time
	// collector over the live snapshot instead of construction-time rows.
	o.Collect(func(w io.Writer) { collectPoolMetrics(w, rt) })
	o.Duration("nadmm_request_latency", "", "sampled end-to-end client-request latency at the router", t.latency)
	o.Duration("nadmm_stage_scatter", "", "per-leg scatter round-trip (all replicas)", rt.StageScatter)
	o.Duration("nadmm_stage_merge", "", "partial-tile merge time of class-sharded gathers", rt.StageMerge)
}

// collectPoolMetrics renders the per-shard and per-replica metric
// families over the pool's current membership. Registered as a
// scrape-time collector because AddBackend/RemoveBackend change the
// label sets while the server runs; each scrape emits exactly the live
// rows, and a removed replica's rows disappear with it.
func collectPoolMetrics(w io.Writer, rt *Router) {
	groups := rt.Pool().Groups()
	fmt.Fprint(w, "# HELP nadmm_shard_healthy healthy members in this shard group\n# TYPE nadmm_shard_healthy gauge\n")
	for gi, g := range groups {
		n := 0
		for _, rep := range g.Members() {
			if rep.available() {
				n++
			}
		}
		fmt.Fprintf(w, "nadmm_shard_healthy{shard=\"%d\"} %d\n", gi, n)
	}
	fmt.Fprint(w, "# TYPE nadmm_shard_members gauge\n")
	for gi, g := range groups {
		fmt.Fprintf(w, "nadmm_shard_members{shard=\"%d\"} %d\n", gi, len(g.Members()))
	}
	reps := rt.Pool().Replicas()
	fmt.Fprint(w, "# HELP nadmm_replica_state routing state: 1 healthy, 0 draining, -1 down\n# TYPE nadmm_replica_state gauge\n")
	for _, rep := range reps {
		fmt.Fprintf(w, "nadmm_replica_state{replica=\"%d\"} %s\n", rep.ID, obs.FormatFloat(stateValue(rep.State())))
	}
	fmt.Fprint(w, "# TYPE nadmm_replica_done_total counter\n")
	for _, rep := range reps {
		fmt.Fprintf(w, "nadmm_replica_done_total{replica=\"%d\"} %d\n", rep.ID, rep.done.Load())
	}
	fmt.Fprint(w, "# TYPE nadmm_replica_errors_total counter\n")
	for _, rep := range reps {
		fmt.Fprintf(w, "nadmm_replica_errors_total{replica=\"%d\"} %d\n", rep.ID, rep.errs.Load())
	}
	fmt.Fprint(w, "# TYPE nadmm_replica_rejected_total counter\n")
	for _, rep := range reps {
		fmt.Fprintf(w, "nadmm_replica_rejected_total{replica=\"%d\"} %d\n", rep.ID, rep.rejected.Load())
	}
	fmt.Fprint(w, "# TYPE nadmm_replica_inflight gauge\n")
	for _, rep := range reps {
		fmt.Fprintf(w, "nadmm_replica_inflight{replica=\"%d\"} %d\n", rep.ID, rep.InFlight())
	}
	for _, rep := range reps {
		obs.WriteSummary(w, "nadmm_leg_latency", obs.Label("replica", strconv.Itoa(rep.ID)), rep.Latency)
	}
}

// RegisterAutoscaler adds the autoscaler's rows to /metricz. Called by
// the fleet bootstrap once the control loop exists; a fleet without one
// simply has no nadmm_autoscale_* family.
func (s *Server) RegisterAutoscaler(a *control.Autoscaler) {
	s.Obs().GaugeFunc("nadmm_autoscale_replicas", "", "replica count as of the last autoscaler evaluation",
		func() float64 { return float64(a.Replicas()) })
	s.Obs().CounterFunc("nadmm_autoscale_ups_total", "", "successful autoscaler scale-ups", a.Ups)
	s.Obs().CounterFunc("nadmm_autoscale_downs_total", "", "successful autoscaler scale-downs", a.Downs)
	s.Obs().CounterFunc("nadmm_autoscale_failures_total", "", "scaling actions refused or failed (drain guard, spawn error)", a.Failures)
}

// replicaHealth is one replica's row in /healthz.
type replicaHealth struct {
	ID       int    `json:"id"`
	Group    int    `json:"group"`
	Zone     string `json:"zone,omitempty"`
	State    string `json:"state"`
	Version  int64  `json:"version"`
	InFlight int64  `json:"in_flight"`
	ShardLow int    `json:"shard_low,omitempty"`
	ShardHi  int    `json:"shard_high,omitempty"`
}

// Health reports shard coverage, not mere liveness: "ok" when
// every group member everywhere is healthy, "degraded" (still 200 —
// every shard retains at least one healthy member) when some member is
// down or draining, "unserviceable" (503) when some group has zero
// healthy members and class-sharded requests cannot be assembled. The
// per-shard healthy counts pinpoint which range lost coverage.
func (t *routerTier) Health(uptime time.Duration) (int, any) {
	reps := t.rt.Pool().Replicas()
	rows := make([]replicaHealth, len(reps))
	for i, rep := range reps {
		m := rep.Meta()
		rows[i] = replicaHealth{
			ID: rep.ID, Group: rep.GroupID, Zone: rep.Zone,
			State: rep.State().String(), Version: m.Version, InFlight: rep.InFlight(),
		}
		if t.rt.Mode() == ModeClass {
			rows[i].ShardLow, rows[i].ShardHi = m.ShardLow, m.ShardHigh
		}
	}
	status, shards := t.rt.Pool().Coverage()
	code := http.StatusOK
	if status == "unserviceable" {
		code = http.StatusServiceUnavailable
	}
	return code, map[string]any{
		"status": status,
		"mode":   string(t.rt.Mode()),
		"model": serve.ModelMeta{
			Version:  t.rt.Version(),
			Classes:  t.rt.Classes(),
			Features: t.rt.Features(),
		},
		"shards":         shards,
		"replicas":       rows,
		"uptime_seconds": uptime.Seconds(),
	}
}

// handleReplicas is the admin surface: GET lists replica stats plus
// shard coverage, POST with {"id":N,"action":"drain"|"undrain"} (or
// ?id=&action=) changes a replica's routing state. Draining blocks
// until the replica's in-flight requests finish; draining the last
// available member of a shard group is refused with 409 unless
// "force":true (or ?force=true) — that drain takes the shard's
// coverage to zero.
func (s *Server) handleReplicas(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		coverage, shards := s.rt.Pool().Coverage()
		serve.WriteJSON(w, http.StatusOK, map[string]any{
			"replicas": s.rt.Pool().Stats(),
			"coverage": coverage,
			"shards":   shards,
		})
	case http.MethodPost:
		var req struct {
			ID     int    `json:"id"`
			Action string `json:"action"`
			Force  bool   `json:"force"`
		}
		if q := r.URL.Query(); q.Get("action") != "" {
			req.Action = q.Get("action")
			id, err := strconv.Atoi(q.Get("id"))
			if err != nil {
				serve.WriteError(w, http.StatusBadRequest, "bad id: %v", err)
				return
			}
			req.ID = id
			req.Force, _ = strconv.ParseBool(q.Get("force"))
		} else if !serve.DecodeBody(w, r, &req) {
			return
		}
		var err error
		switch req.Action {
		case "drain":
			if !req.Force {
				if err := s.rt.Pool().CanDrain(req.ID); err != nil {
					serve.WriteError(w, http.StatusConflict, "%v", err)
					return
				}
			}
			err = s.rt.Pool().Drain(req.ID, 30*time.Second)
		case "undrain":
			err = s.rt.Pool().Undrain(req.ID)
		default:
			serve.WriteError(w, http.StatusBadRequest, "unknown action %q (want drain or undrain)", req.Action)
			return
		}
		if err != nil {
			serve.WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		serve.WriteJSON(w, http.StatusOK, map[string]any{"status": req.Action, "id": req.ID})
	default:
		serve.WriteError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}
