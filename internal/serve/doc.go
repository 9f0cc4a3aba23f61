// Package serve is the online inference subsystem: it turns the
// repository's trained softmax models into a production-style model
// server built on the same fused kernel substrate the solvers train on.
//
// The layering mirrors what GPU inference stacks (kserve-style model
// servers over continuous-batching engines) converge on:
//
//   - Predictor scores batches of dense or CSR feature rows against one
//     immutable weight snapshot with zero steady-state heap allocations:
//     rows are staged into grow-only buffers and scored by the fused
//     MulNT / MulNTReduce launches through loss.PredictInto/ProbaInto,
//     reusing the device scratch arena exactly like the training path.
//     ScoresBatch is the class-shard plane's partial-tile path over a
//     whole wire.Batch.
//   - Batcher coalesces concurrent requests into micro-batches (up to
//     MaxBatch rows or a MaxLinger window, whichever first) so per-row
//     work is amortized over one kernel launch — the inference-side
//     analogue of the paper's argument for batching per-sample work into
//     GPU matrix kernels. Its admission queue is bounded: when the queue
//     is full, a submit fails fast with ErrQueueFull (backpressure), it
//     never drops an accepted request. ScoreBatch is how every
//     replica-side caller scores a request's rows: submit all, wait
//     every accepted one, report the first error by instance.
//   - Registry holds the current Predictor behind an atomic pointer with
//     reference counting, so a new checkpoint hot-swaps in with zero
//     downtime: in-flight batches finish on the old snapshot, whose
//     device is released when the last reference drains.
//   - Server is the kserve-style HTTP/JSON surface (/v1/predict,
//     /v1/proba, /healthz, /metricz, /debug/tracez, /v1/reload) — the
//     only place JSON is spoken, and the same code on both tiers: it
//     owns request decoding (scan.go: one validating pass over a body
//     bounded by wire.MaxPayload, numbers written straight into pooled
//     flat buffers whose views form the request's wire.Batch; DESIGN.md
//     "Request grammar" is the spec), the response and error envelopes
//     and the error-to-status table, and scores through a Tier.
//     NewServer plugs in the batcher; internal/router plugs in its
//     scatter-gather Router.
//   - FrameServer exposes the same serving stack on the binary frame
//     data plane (internal/wire; DESIGN.md "Binary data plane" is the
//     spec): a TCP listener whose connections carry pipelined
//     length-prefixed frames, sharing the Batcher and Registry with the
//     HTTP surface so both planes coalesce into the same kernel
//     launches and see the same hot swaps.
//
// Invariants:
//
//   - Zero-alloc steady state: the request scan, predictor scoring,
//     batcher round trips, and frame encode/decode allocate nothing once
//     staging reached its high-water shape (pinned by AllocsPerRun tests
//     here and in internal/wire).
//   - A decoded row lives as long as its request's handler: a Tier must
//     not read the batch's rows after Score returns.
//   - Bitwise equivalence across surfaces: the HTTP edge, the frame
//     plane, and direct Predictor calls produce bit-identical classes
//     and probabilities for the same snapshot, and the frame plane
//     bit-identical partial-score tiles — JSON by exact float64
//     round-tripping, frames by raw IEEE-754 bits.
//   - Accepted work is never dropped: full queues reject synchronously
//     (429 / CodeQueueFull), shutdown answers in-flight requests with
//     ErrClosed, and hot swaps retire the old device only after its
//     last batch releases.
//
// See DESIGN.md for the end-to-end architecture and bench/README.md
// for how serving throughput and latency are measured.
package serve
