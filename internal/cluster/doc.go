// Package cluster provides the distributed-execution substrate of the
// training-side reproduction: an SPMD runtime that runs one goroutine
// per rank, MPI-style collectives over pluggable transports
// (in-process channels or real TCP), and a network cost model with
// per-rank virtual clocks.
//
// The paper's clusters communicate over 100 Gbps InfiniBand, and its
// core claim is about communication *rounds*: Newton-ADMM needs one
// gather+scatter per iteration while GIANT needs three collectives and
// synchronous SGD one per mini-batch. The virtual clock charges every
// collective with a tree cost (latency * ceil(log2 N) + bytes/bandwidth)
// on top of the measured local compute time, so experiments can replay
// the paper's interconnect — or a slower one, reproducing the
// "amplified by slower interconnects" observation — on a single
// machine.
//
// Responsibilities and invariants:
//
//   - Transport delivers []float64 payloads between ranks with pairwise
//     (from, to) ordering — the only ordering the collectives rely on.
//     The TCP transport sends NAWP peer frames through internal/wire
//     (hello, abort, vector; the correlation field carries the sending
//     rank), crossing real loopback sockets so wire effects are
//     exercised without a cluster.
//   - Liveness over hangs: when a rank dies mid-protocol, its peers'
//     blocked Recv calls fail (closed queues / poisoned pipes) instead
//     of deadlocking the SPMD step.
//   - Bitwise-stable collectives: reduction order is fixed by rank, so
//     a collective's result does not depend on message arrival timing.
//   - The virtual clock rides the payload: every vector a Node sends ends
//     with the sender's clock, which the receiver strips and raises its
//     own clock to. An all-reduce, or a gather then a broadcast, leaves
//     every rank at max_i(clock_i) + cost; a bare broadcast's root hears
//     from no one. A missing or invalid stamp fails the collective.
//
// Relation to the serving tier: this package is the *training* data
// plane (rank-addressed collectives between peers). It shares one frame
// codec, internal/wire, with the serving fleet's router↔replica hop —
// a request/response protocol with correlation IDs and error frames;
// DESIGN.md's "Binary data plane" section specifies both, the
// training side under "Peer frames".
package cluster
