package sim

import (
	"fmt"
	"strings"
	"time"

	"newtonadmm/internal/control"
	"newtonadmm/internal/obs"
)

// CoverageTransition is one change of the pool's coverage status.
type CoverageTransition struct {
	At     time.Duration
	Status string
}

// ScalePoint is one point of the autoscaler's replica trajectory.
type ScalePoint struct {
	At       time.Duration
	Replicas int
}

// ClassStats is the per-service-class accounting of one scenario run.
type ClassStats struct {
	Class     string
	Arrived   int64
	Completed int64
	Errors    int64
	// Rejected is indexed by control.Reason.
	Rejected [numReasons]int64
	// Latency summarizes the class's virtual request latencies
	// (arrival to last leg landing, wire cost included).
	Latency obs.Snapshot
}

// RejectedTotal sums the class's rejections across reasons.
func (c ClassStats) RejectedTotal() int64 {
	var n int64
	for _, v := range c.Rejected {
		n += v
	}
	return n
}

// ScenarioResult is the deterministic outcome of one scenario run. Its
// Report rendering is the regression surface: same scenario + same
// seed must produce byte-identical text.
type ScenarioResult struct {
	Name     string
	Seed     int64
	Mode     string
	Duration time.Duration

	Requests    int64
	Completed   int64
	Rejected    int64
	Errors      int64
	Failovers   int64
	SkewRetries int64

	Classes [control.NumPriorities]ClassStats

	Coverage []CoverageTransition

	AutoEnabled                   bool
	AutoUps, AutoDowns, AutoFails uint64
	Scale                         []ScalePoint
	FinalReplicas                 int
}

// result snapshots the simulator's accounting into a ScenarioResult.
func (s *Sim) result() *ScenarioResult {
	st := s.rtr.Stats()
	res := &ScenarioResult{
		Name:          s.sc.Name,
		Seed:          s.sc.Seed,
		Mode:          s.sc.Mode,
		Duration:      s.sc.Duration,
		Failovers:     st.Failovers,
		SkewRetries:   st.SkewRetry,
		Coverage:      s.coverage,
		Scale:         s.scale,
		FinalReplicas: len(s.rtr.Pool().Replicas()),
	}
	for c := 0; c < control.NumPriorities; c++ {
		cs := ClassStats{
			Class:     control.Priority(c).String(),
			Arrived:   s.arrived[c],
			Completed: s.completed[c],
			Errors:    s.errored[c],
			Rejected:  s.rejected[c],
			Latency:   s.lat[c].Snapshot(),
		}
		res.Classes[c] = cs
		res.Requests += cs.Arrived
		res.Completed += cs.Completed
		res.Errors += cs.Errors
		res.Rejected += cs.RejectedTotal()
	}
	if s.as != nil {
		res.AutoEnabled = true
		res.AutoUps = s.as.Ups()
		res.AutoDowns = s.as.Downs()
		res.AutoFails = s.as.Failures()
	}
	return res
}

// Class returns the stats of one service class.
func (r *ScenarioResult) Class(p control.Priority) ClassStats {
	return r.Classes[p]
}

// Report renders the run as stable text — the byte-identity surface
// the determinism suite pins and the artifact the CI job uploads.
func (r *ScenarioResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s seed=%d mode=%s duration=%v\n", r.Name, r.Seed, r.Mode, r.Duration)
	fmt.Fprintf(&b, "totals requests=%d completed=%d rejected=%d errors=%d failovers=%d skew_retries=%d\n",
		r.Requests, r.Completed, r.Rejected, r.Errors, r.Failovers, r.SkewRetries)
	for _, cs := range r.Classes {
		fmt.Fprintf(&b, "class %s arrived=%d completed=%d errors=%d queue_full=%d rate_limited=%d cost_rejected=%d",
			cs.Class, cs.Arrived, cs.Completed, cs.Errors,
			cs.Rejected[control.ReasonQueueFull], cs.Rejected[control.ReasonRateLimited], cs.Rejected[control.ReasonCostRejected])
		fmt.Fprintf(&b, " p50=%v p95=%v p99=%v max=%v\n",
			cs.Latency.P50, cs.Latency.P95, cs.Latency.P99, cs.Latency.Max)
	}
	b.WriteString("coverage")
	for _, tr := range r.Coverage {
		fmt.Fprintf(&b, " %v=%s", tr.At, tr.Status)
	}
	b.WriteString("\n")
	if r.AutoEnabled {
		fmt.Fprintf(&b, "autoscale ups=%d downs=%d refused=%d trajectory", r.AutoUps, r.AutoDowns, r.AutoFails)
		for _, p := range r.Scale {
			fmt.Fprintf(&b, " %v=%d", p.At, p.Replicas)
		}
		b.WriteString("\n")
	} else {
		b.WriteString("autoscale disabled\n")
	}
	fmt.Fprintf(&b, "final replicas=%d\n", r.FinalReplicas)
	return b.String()
}
