// Package router is the distributed serving tier: a scatter-gather
// router in front of N predictor replicas, each running its own
// serve.Batcher/Registry/Predictor stack — in-process, or in separate
// processes reached over the binary frame plane.
//
// It turns the single-node model server of internal/serve into a
// serving fleet with two placement modes:
//
//   - Replica-balanced (data-parallel): every replica holds the whole
//     model; each request is routed to one replica picked by
//     power-of-two-choices least-loaded selection, with per-replica
//     health tracking, draining, and 429-aware failover. Throughput
//     scales with replica count; any replica can be hot-swapped or
//     drained while the others serve.
//   - Class-sharded (model-parallel): the weight matrix's explicit class
//     rows are split across replicas; every request is scattered to all
//     replicas, each scores a partial logit tile for its rows, and the
//     router merges the partial columns and applies the same
//     argmax/softmax transforms as single-node prediction. This is the
//     paper's amortization argument applied to inference: one scatter
//     and one gather per request batch, with the per-class work spread
//     across the fleet.
//
// One record of each fact. The Pool is the membership: a replica's
// stable ID, its Backend and its last probed metadata, which is the
// replica's own serve.ModelMeta (zone included) as Backend.Meta
// reports it — full replicas are read through ModelMeta.Normalized
// wherever a class span matters. An in-process member is a
// LocalBackend (the same stack the single-node server runs), so the
// public façade finds its members, shards and zones in the pool rather
// than in lists of its own. Admission at the scatter seam is one
// control.Gate, the same type the replica batchers use.
//
// A Batch is one client request: a wire.Batch of rows plus the trace
// and service class a batch frame carries. Backends score it without
// converting it: LocalBackend hands it to serve.Batcher.ScoreBatch or
// serve.Predictor.ScoresBatch, TCPBackend frames it with
// wire.Encoder.Batch.
//
// Remote replicas are reached over one data plane: TCPBackend speaks
// the binary frame protocol of internal/wire against a replica's
// serve.FrameServer (join address tcp://host:port, see BackendForURL) —
// persistent pooled connections, pipelined requests matched by
// correlation ID, raw IEEE-754 float64 payloads. DESIGN.md's "Binary
// data plane" section is the normative protocol spec. JSON is spoken to
// clients only: Server is the serve.Server HTTP surface scoring through
// the router, so a fleet and a single replica answer a client alike.
//
// Invariants the tier maintains in process and across the wire:
//
//   - Bitwise identity: class-sharded predictions and probabilities are
//     bit-for-bit equal to a single Predictor holding the full model
//     (TestClassShardedBitwiseIdentical, parameterized over the local
//     and binary transports; the wire carries raw float64 bits).
//   - Version-consistent merges: partial tiles carry the snapshot
//     version they were scored against; mixed versions trigger a
//     bounded rescore then ErrVersionSkew, and coordinated reloads hold
//     the swap lock so router-originated scatters never straddle a
//     rollout.
//   - Error taxonomy: backpressure (serve.ErrQueueFull) fails over and
//     never evicts; only transport-level failures
//     (ErrReplicaUnreachable) feed the health signal; request-shaped
//     errors fail fast. The wire's error codes carry exactly these
//     classes, so a remote replica fails over like an in-process one.
//
// See DESIGN.md for the architecture diagrams, bench/README.md for the
// router rungs of the serving workloads, and PERF.md's historical
// section for the JSON-vs-binary comparison that retired the JSON hop.
package router
