// Package router is the distributed serving tier: a scatter-gather
// router in front of N predictor replicas, each its own
// serve.Registry/Predictor stack — in-process, or in separate processes
// reached over the binary frame plane.
//
// It turns the single-node model server of internal/serve into a
// serving fleet with one data plane. The members form an R×S grid: the
// weight matrix's explicit class rows are split into S shard groups,
// and each group has R interchangeable siblings. Every request is
// scattered to all groups; in each group one member, picked by
// power-of-two-choices least-loaded selection, scores a partial logit
// tile for its rows, with failover to its siblings. The router merges
// the partial columns and applies the same argmax/softmax transforms as
// single-node prediction. A whole-model replica is simply a member of
// the one group that spans [0, C-1), so R whole-model copies are an
// R×1 grid: data-parallel serving is the S = 1 case, and model-parallel
// serving (the paper's amortization argument applied to inference: one
// scatter and one gather per request batch, the per-class work spread
// across the fleet) is S > 1.
//
// One record of each fact. The Pool is the membership, fixed when New
// builds the router: a replica's ID (its position in the pool), its
// Backend and its last probed metadata, which is the
// replica's own serve.ModelMeta (zone included) as Backend.Meta
// reports it — full replicas are read through ModelMeta.Normalized
// wherever a class span matters. An in-process member is a
// LocalBackend (the registry and reloader the single-node server runs),
// so the public façade finds its members, shards and zones in the pool
// rather than in lists of its own. Admission at the scatter seam is one
// control.Gate, the same type the single-node batcher uses.
//
// One of each job in the router itself. Backend has one data call,
// PartialScores, for a member's tile. One member-attempt loop
// (tryMembers) serves every scatter leg. One fleet check (checkFleet)
// validates the members' metadata at New and after every Reload or
// Coordinate, and one power-of-two-choices pick orders the members to
// try.
//
// A Batch is one client request: a wire.Batch of rows plus the trace
// and service class a batch frame carries. Backends score it without
// converting it: LocalBackend hands it to serve.Predictor.ScoresBatch,
// TCPBackend frames it with wire.Encoder.Batch.
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
//   - Bitwise identity: merged predictions and probabilities are
//     bit-for-bit equal to a single Predictor holding the full model
//     (TestClassShardedBitwiseIdentical and, for one group of whole
//     models, TestReplicaModeMatchesSingle, parameterized over the
//     local and binary transports; the wire carries raw float64 bits).
//   - Version-consistent merges: partial tiles carry the snapshot
//     version they were scored against; mixed versions trigger a
//     bounded rescore then ErrVersionSkew, and coordinated reloads hold
//     the swap lock so router-originated scatters never straddle a
//     rollout.
//   - Error taxonomy: backpressure (serve.ErrQueueFull, or a member
//     already holding memberQueueBound requests) fails over and never
//     evicts, and a group whose every sibling pushed back answers it
//     (HTTP 429); only transport-level failures
//     (ErrReplicaUnreachable) feed the health signal; request-shaped
//     errors fail fast. The wire's error codes carry exactly these
//     classes, so a remote replica fails over like an in-process one.
//
// See DESIGN.md for the architecture diagrams, bench/README.md for the
// router rungs of the serving workloads, and PERF.md's historical
// section for the JSON-vs-binary comparison that retired the JSON hop.
package router
