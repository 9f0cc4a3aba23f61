// Package wire is the binary frame protocol of the serving fleet's
// router↔replica data plane: a length-prefixed, little-endian framing
// over a plain TCP stream that replaces the JSON/HTTP hop of the
// scatter-gather tier for the request kinds that dominate its traffic
// (predict, proba, partial scores, meta probe, reload). The training
// collectives' TCP transport (internal/cluster) speaks the same frames
// through three peer opcodes — OpHello, OpAbort and OpVector, whose
// correlation field carries the sending rank — so both remote hops
// share one codec.
//
// DESIGN.md's "Binary data plane" section is the normative
// specification — frame layout, field offsets, payload encodings, and
// error-frame semantics live there, and the decoder tests in this
// package reference its offsets. This package implements it:
//
//   - Header/PutHeader/ParseHeader: the fixed 20-byte frame header
//     (magic, version, opcode, flags, correlation ID, payload length).
//   - Encoder: builds one frame in a grow-only buffer — batch requests
//     (mixed dense/sparse float64 rows, written as raw IEEE-754 bits)
//     and every response kind. Steady-state encodes allocate nothing.
//   - Reader: reads frames off a stream into a grow-only payload
//     buffer; Batch and the Decode* functions parse payloads into
//     reusable staging, so steady-state decodes allocate nothing
//     either (both pinned by AllocsPerRun tests).
//   - Batch: the serving stack's one batch type, built by the JSON
//     scanner and the router (AddDense/AddCSR views) as well as by
//     Decode, and framed by Encoder.Batch.
//
// Invariants the rest of the serving stack relies on:
//
//   - Bitwise float64 transport. Row values and score/probability
//     tiles cross the wire as raw IEEE-754 bits, so the class-sharded
//     merge stays bitwise identical to single-node scoring.
//   - Correlation IDs. Every response echoes its request's ID, so a
//     client may pipeline many requests on one connection and match
//     answers out of order (the router's TCPBackend multiplexes
//     concurrent scatters over a small pool of persistent
//     connections).
//   - Version headers. Scores responses carry the model snapshot
//     version they were computed against, which is what the router's
//     ErrVersionSkew detection compares; error frames carry the error
//     taxonomy failover keys on (queue-full, no-model, shape-changed,
//     ...).
//
// The package depends only on the standard library: internal/serve
// hosts the server side (FrameServer) and internal/router the client
// side (TCPBackend).
package wire
