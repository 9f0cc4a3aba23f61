// Package sim is the deterministic fleet simulator: a shared-virtual-
// clock discrete-event engine that drives the REAL serving policy code
// — internal/router's planner/pool/P2C/sibling-retry/health logic,
// internal/control's admission, weighted-round-robin, and autoscaler
// policies, and the batcher's queue/linger semantics — with service
// times supplied by calibrated models (cluster.ServiceTimeModel fit
// from PERF.md "Historical serving measurements", interconnect cost
// from cluster.NetworkModel presets) instead of wall-clock execution.
// Replica failures and recoveries reuse the faultinject seam.
//
// Determinism is the contract: a scenario is a pure function of its
// definition and seed. The event loop is single-threaded (a heap of
// timestamped events, ties broken by insertion sequence), every random
// draw comes from seeded sources, the router runs with SerialScatter
// so scatter legs consume the pick RNG in group order, and the report
// is built exclusively from virtual-time accounting — so the same seed
// produces a byte-identical ScenarioResult report, which is what the
// scenario regression suite pins. DESIGN.md "Fleet simulator" is the
// normative spec.
package sim
