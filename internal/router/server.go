package router

import (
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
	// Tier unavailability (shard down, version skew, replica
	// unreachable) is transient like the single-node 503s.
	s.MapStatus(http.StatusServiceUnavailable, ErrShardUnavailable, ErrVersionSkew, ErrReplicaUnreachable)
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
	o.CounterFunc("nadmm_failovers_total", "", "scatter legs retried on a sibling after a replica failure",
		func() uint64 { return uint64(rt.failovers.Load()) })
	o.CounterFunc("nadmm_skew_retries_total", "", "gathers retried for cross-shard version skew",
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
	rt.gate.Register(o, "client requests")
	poolMetrics(o, rt.Pool())
	o.Duration("nadmm_request_latency", "", "sampled end-to-end client-request latency at the router", t.latency)
	o.Duration("nadmm_stage_scatter", "", "per-leg scatter round-trip (all replicas)", rt.StageScatter)
	o.Duration("nadmm_stage_merge", "", "partial-tile merge time of gathers", rt.StageMerge)
}

// poolMetrics registers the per-shard and per-replica metric families
// one family at a time, so each family's rows render together under
// one HELP/TYPE header.
func poolMetrics(o *obs.Registry, p *Pool) {
	shard := func(g *Group) string { return obs.Label("shard", strconv.Itoa(g.ID)) }
	for _, g := range p.Groups() {
		o.GaugeFunc("nadmm_shard_healthy", shard(g), "healthy members in this shard group",
			func() float64 { return float64(g.availableCount()) })
	}
	for _, g := range p.Groups() {
		o.GaugeFunc("nadmm_shard_members", shard(g), "", func() float64 { return float64(len(g.members)) })
	}
	reps := p.Replicas()
	replica := func(r *Replica) string { return obs.Label("replica", strconv.Itoa(r.ID)) }
	for _, r := range reps {
		o.GaugeFunc("nadmm_replica_state", replica(r), "routing state: 1 healthy, 0 draining, -1 down",
			func() float64 { return stateValue(r.State()) })
	}
	for _, r := range reps {
		o.CounterFunc("nadmm_replica_done_total", replica(r), "", func() uint64 { return uint64(r.done.Load()) })
	}
	for _, r := range reps {
		o.CounterFunc("nadmm_replica_errors_total", replica(r), "", func() uint64 { return uint64(r.errs.Load()) })
	}
	for _, r := range reps {
		o.CounterFunc("nadmm_replica_rejected_total", replica(r), "", func() uint64 { return uint64(r.rejected.Load()) })
	}
	for _, r := range reps {
		o.GaugeFunc("nadmm_replica_inflight", replica(r), "", func() float64 { return float64(r.InFlight()) })
	}
	for _, r := range reps {
		o.Duration("nadmm_leg_latency", replica(r), "", r.Latency)
	}
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
// healthy members and requests cannot be assembled. The
// per-shard healthy counts pinpoint which range lost coverage.
func (t *routerTier) Health(uptime time.Duration) (int, any) {
	reps := t.rt.Pool().Replicas()
	rows := make([]replicaHealth, len(reps))
	for i, rep := range reps {
		m := rep.Meta().Normalized()
		rows[i] = replicaHealth{
			ID: rep.ID, Group: rep.GroupID, Zone: m.Zone,
			State: rep.State().String(), Version: m.Version, InFlight: rep.InFlight(),
			ShardLow: m.ShardLow, ShardHi: m.ShardHigh,
		}
	}
	status, shards := t.rt.Pool().Coverage()
	code := http.StatusOK
	if status == "unserviceable" {
		code = http.StatusServiceUnavailable
	}
	return code, map[string]any{
		"status": status,
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
		if s.rt.Pool().byID(req.ID) == nil {
			serve.WriteError(w, http.StatusBadRequest, "no replica %d (ids run 0..%d)", req.ID, len(s.rt.Pool().Replicas())-1)
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
