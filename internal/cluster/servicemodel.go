package cluster

import (
	"fmt"
	"time"
)

// ServiceTimeModel is a calibrated affine model of a replica's batch
// service time: scoring a batch of n rows costs Base + n*PerRow. The
// affine shape is what the serving measurements kept in PERF.md show — a
// fixed launch/bookkeeping overhead amortized over rows whose per-row
// kernel cost is constant for a given model shape. The fleet simulator
// uses it in place of wall-clock execution, the same way the training
// side's NetworkModel replaces a measured interconnect.
type ServiceTimeModel struct {
	Name string
	// Base is the per-batch fixed cost (launch, staging, bookkeeping).
	Base time.Duration
	// PerRow is the marginal cost of one additional row.
	PerRow time.Duration
}

// Calibrated presets, fit from the tables in PERF.md "Historical serving
// measurements (PR 1–4, retired harness)" (single hardware thread):
//
//   - MNISTServiceModel: the MNIST-shaped model (784 features, 10
//     classes). "Serving micro-benchmarks": 171 µs for a fused 64-row
//     launch (~2.7 µs/row), and the batcher round trip adds ~3 µs of
//     per-batch bookkeeping.
//   - HIGGSServiceModel: the HIGGS-shaped model (28 features, binary).
//     "In-process sustained load": the batch-1 pipeline sustains
//     1.31 M req/s (~0.7 µs/row, near-zero fixed cost at this width).
//
// The serve.predictor_us and serve.batcher_rtt_us rungs of bench/ measure
// the same two quantities today.
var (
	MNISTServiceModel = ServiceTimeModel{Name: "mnist-784f", Base: 3 * time.Microsecond, PerRow: 2700 * time.Nanosecond}
	HIGGSServiceModel = ServiceTimeModel{Name: "higgs-28f", Base: 1 * time.Microsecond, PerRow: 700 * time.Nanosecond}
)

// BatchTime returns the modeled service time of one n-row batch.
func (m ServiceTimeModel) BatchTime(n int) time.Duration {
	if n <= 0 {
		return 0
	}
	return m.Base + time.Duration(n)*m.PerRow
}

func (m ServiceTimeModel) String() string {
	return fmt.Sprintf("%s (base %v + %v/row)", m.Name, m.Base, m.PerRow)
}

// ServicePoint is one calibration measurement: a batch of Rows took
// Elapsed to score (a PERF.md table row or a bench/ rung).
type ServicePoint struct {
	Rows    int
	Elapsed time.Duration
}

// FitServiceTime least-squares-fits an affine service-time model to
// measured (rows, elapsed) points — the calibration step that turns a
// measured latency table into a simulator replica model. At least two
// points with distinct row counts are required; a fit with a negative
// intercept or slope is clamped to zero rather than rejected (noisy
// measurements near the origin are common).
func FitServiceTime(name string, points []ServicePoint) (ServiceTimeModel, error) {
	if len(points) < 2 {
		return ServiceTimeModel{}, fmt.Errorf("cluster: service-time fit needs >= 2 points, got %d", len(points))
	}
	var sx, sy, sxx, sxy float64
	for _, p := range points {
		x, y := float64(p.Rows), float64(p.Elapsed)
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	n := float64(len(points))
	det := n*sxx - sx*sx
	if det == 0 {
		return ServiceTimeModel{}, fmt.Errorf("cluster: service-time fit needs >= 2 distinct row counts")
	}
	slope := (n*sxy - sx*sy) / det
	intercept := (sy - slope*sx) / n
	if slope < 0 {
		slope = 0
	}
	if intercept < 0 {
		intercept = 0
	}
	return ServiceTimeModel{
		Name:   name,
		Base:   time.Duration(intercept),
		PerRow: time.Duration(slope),
	}, nil
}
