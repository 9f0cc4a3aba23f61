// Package control is the serving tier's control plane: the pieces that
// decide, from the signals the data plane already exports, which
// requests enter the system and in what order they are served.
//
// Two subsystems, deliberately decoupled from the data plane they
// steer (DESIGN.md "Control plane"):
//
//   - Admission: a pluggable AdmissionPolicy evaluated at submit time
//     in the batcher and at scatter time in the router, both through
//     one Gate type (atomic policy swap, per-reason RejectStats, the
//     /metricz rows of either tier). AlwaysAdmit is
//     the zero-cost default; TokenBucket rate-limits by request count;
//     the cost-aware variant prices each batch at rows x features so a
//     wide batch spends proportionally more budget. Every rejection
//     carries a machine-readable Reason and a Retry-After hint derived
//     from the bucket's refill time.
//
//   - Priority: three request classes (Interactive, Batch, Background)
//     carried end to end — an X-Nadmm-Priority header on the JSON
//     plane, a flag+byte on the binary plane — with weighted dequeue
//     in the batcher (WRR) so a background flood cannot starve
//     interactive p99, and reserve thresholds in the token bucket so
//     background deterministically absorbs the rejections first.
//
// Capacity is not decided here: a fleet's membership is fixed when
// the router is built.
package control
