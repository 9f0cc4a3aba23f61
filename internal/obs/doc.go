// Package obs is the fleet-wide observability layer: the lock-free
// log-bucketed latency Histogram (and its windowed Delta, the autoscaler's
// signal), a unified metrics Registry rendered as one Prometheus-style
// text exposition (the single code path behind both tiers' /metricz),
// per-request Traces made of a
// fixed-size span array (admission-queue wait, batch linger, batch
// execute, per-leg scatter RTT with sibling-retry attempts, merge,
// encode), and a lock-free ring-buffer Recorder behind /debug/tracez.
//
// Everything on the request path is zero-alloc at steady state: traces
// are pooled and recycled through the recorder ring, spans are claimed
// by atomic index into a fixed array, and sampling (1 in N, shared with
// the latency histograms) keeps the batcher and router hot paths pinned
// at 0 allocs/op. DESIGN.md "Observability" is the normative spec for
// the metric name table, the trace-trailer wire layout, and the
// sampling semantics.
package obs
