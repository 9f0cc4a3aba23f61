package router

import (
	"errors"

	"newtonadmm/internal/control"
	"newtonadmm/internal/obs"
	"newtonadmm/internal/serve"
	"newtonadmm/internal/wire"
)

// Errors introduced by the routing tier. Backend and scoring errors
// (serve.ErrQueueFull, serve.ErrNoModel, ...) pass through unchanged so
// the HTTP layer's status mapping stays uniform.
var (
	// ErrNoReplicas means no replica is currently available to serve the
	// request (all down or draining). Transient: maps to 503.
	ErrNoReplicas = errors.New("router: no available replica")
	// ErrShardUnavailable means a class shard's only replica is down or
	// draining, so partial logits cannot be assembled. Transient: 503.
	ErrShardUnavailable = errors.New("router: class shard unavailable")
	// ErrVersionSkew means the shards scored a request against different
	// model versions mid-rollout and retries were exhausted. Transient:
	// the next request (or retry) sees the settled version. Maps to 503.
	ErrVersionSkew = errors.New("router: shard model versions diverged; retry")
	// ErrReplicaUnreachable tags transport-level failures (dial/read
	// errors to a remote replica). It is the only data-plane error that
	// feeds the health signal: request-shaped errors (bad rows, wire
	// 4xx) are the client's fault and must not evict replicas. Maps to
	// 503.
	ErrReplicaUnreachable = errors.New("router: replica unreachable")
)

// Meta describes a backend's current model snapshot. For a full replica
// ShardCount is 0 and the shard range is the whole explicit-class span
// [0, Classes-1); for a class shard, Classes counts only the local slice
// plus the implicit reference class and TotalClasses is the full model's
// class count.
type Meta struct {
	Classes      int
	Features     int
	Version      int64
	ShardIndex   int
	ShardCount   int
	ShardLow     int
	ShardHigh    int
	TotalClasses int
	// Zone is the replica's placement zone/rack label ("" when the
	// operator declared none); the planner uses it to validate that a
	// replicated shard group spreads across failure domains.
	Zone string
}

// IsShard reports whether the backend serves a class shard rather than
// the full model.
func (m Meta) IsShard() bool { return m.ShardCount > 0 }

// metaFromModel maps the serving layer's wire metadata.
func metaFromModel(mm serve.ModelMeta) Meta {
	m := Meta{
		Classes:      mm.Classes,
		Features:     mm.Features,
		Version:      mm.Version,
		ShardIndex:   mm.ShardIndex,
		ShardCount:   mm.ShardCount,
		ShardLow:     mm.ShardLow,
		ShardHigh:    mm.ShardHigh,
		TotalClasses: mm.TotalClasses,
		Zone:         mm.Zone,
	}
	if m.ShardCount == 0 {
		m.ShardLow, m.ShardHigh = 0, mm.Classes-1
		m.TotalClasses = mm.Classes
	}
	return m
}

// Backend is the per-replica surface the router scatters to. All batch
// outputs are in the batch's original row order. Implementations must be
// safe for concurrent use; *LocalBackend wraps an in-process serving
// stack, *TCPBackend drives a replica process over the frame plane.
type Backend interface {
	// Meta probes the backend's current snapshot; it doubles as the
	// health-check ping.
	Meta() (Meta, error)
	// Predict scores the whole batch against the full model (replica-
	// balanced data plane). A full admission queue surfaces as
	// serve.ErrQueueFull so the router can fail over.
	Predict(b *Batch, out []int) error
	// Proba is Predict plus class probabilities: out is rows x classes
	// row-major; classes are derived from the probability rows by the
	// caller.
	Proba(b *Batch, out []float64) error
	// PartialScores scores the raw explicit-class logits of the
	// backend's weight rows (class-sharded data plane): out is rows x
	// cols row-major in batch order, where cols is the shard width the
	// router planned for this replica. Implementations must fail with
	// serve.ErrModelShapeChanged when their current snapshot's width
	// differs (a shape-changing reload behind the router's back) —
	// never write a mismatched tile. Returns the snapshot version the
	// scores were computed against, so the router can detect
	// mid-rollout skew.
	PartialScores(b *Batch, cols int, out []float64) (int64, error)
	// Reload asks the backend to hot-swap its checkpoint; returns the
	// new version.
	Reload() (int64, error)
	// Close releases backend resources.
	Close()
}

// Batch is one scatter unit: the rows of one client request (a
// wire.Batch, mixed dense and sparse in arrival order) plus exactly what
// a batch frame carries beside them — the trace ID and the service
// class.
type Batch struct {
	wire.Batch

	// Trace, when non-nil, is the request's sampled observability trace
	// (see internal/obs and DESIGN.md "Observability"). The router
	// records scatter-leg and merge spans into it, and backends
	// propagate its ID across the wire so replica-side spans stitch to
	// the same trace. The party that set it owns finishing it; the
	// router only adds spans.
	Trace *obs.Trace

	// Priority is the request's service class (DESIGN.md "Control
	// plane"). The zero value is interactive, so untouched batches keep
	// the legacy behavior; backends propagate it to replicas (the
	// binary plane's priority trailer).
	Priority control.Priority
}
