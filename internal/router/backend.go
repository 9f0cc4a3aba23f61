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

// Backend is the per-replica surface the router scatters to. All batch
// outputs are in the batch's original row order. Implementations must be
// safe for concurrent use; *LocalBackend wraps an in-process serving
// stack, *TCPBackend drives a replica process over the frame plane.
type Backend interface {
	// Meta probes the backend's current snapshot, as the replica's
	// registry records it (Normalized gives a full replica's class
	// span); it doubles as the health-check ping.
	Meta() (serve.ModelMeta, error)
	// Score scores the whole batch against the full model (replica-
	// balanced data plane): predicted classes into preds when non-nil,
	// class probabilities into proba (rows x classes row-major, the
	// class stride taken from its length) when non-nil. The router
	// passes exactly one non-nil output. A full admission queue surfaces
	// as serve.ErrQueueFull so the router can fail over.
	Score(b *Batch, preds []int, proba []float64) error
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
