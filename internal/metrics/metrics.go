// Package metrics holds the measurement vocabulary of the evaluation:
// convergence traces over virtual time and time- or epochs-to-objective
// queries (internal/harness turns the paper's theta criterion into an
// objective target).
package metrics

import (
	"fmt"
	"math"
	"time"
)

// Point is one epoch's measurement in a convergence trace.
type Point struct {
	Epoch int
	// Time is the virtual wall time at the end of the epoch.
	Time time.Duration
	// Objective is the global training objective F.
	Objective float64
	// TestAccuracy is in [0,1]; NaN when not measured.
	TestAccuracy float64
	// GradNorm is ||grad F|| when measured; NaN otherwise.
	GradNorm float64
}

// Trace is a solver's convergence history on one dataset.
type Trace struct {
	Solver  string
	Dataset string
	Points  []Point
}

// Append adds a point.
func (t *Trace) Append(p Point) { t.Points = append(t.Points, p) }

// Final returns the last point; ok is false for an empty trace.
func (t *Trace) Final() (Point, bool) {
	if len(t.Points) == 0 {
		return Point{}, false
	}
	return t.Points[len(t.Points)-1], true
}

// BestObjective returns the smallest objective seen.
func (t *Trace) BestObjective() float64 {
	best := math.Inf(1)
	for _, p := range t.Points {
		if p.Objective < best {
			best = p.Objective
		}
	}
	return best
}

// TimeToObjective returns the virtual time of the first point whose
// objective is <= target; ok is false if the trace never reaches it.
func (t *Trace) TimeToObjective(target float64) (time.Duration, bool) {
	for _, p := range t.Points {
		if p.Objective <= target {
			return p.Time, true
		}
	}
	return 0, false
}

// EpochsToObjective returns the first epoch whose objective is <= target.
func (t *Trace) EpochsToObjective(target float64) (int, bool) {
	for _, p := range t.Points {
		if p.Objective <= target {
			return p.Epoch, true
		}
	}
	return 0, false
}

// AvgEpochTime returns total time divided by the number of epochs — the
// quantity plotted in the paper's Figure 2.
func (t *Trace) AvgEpochTime() time.Duration {
	if len(t.Points) == 0 {
		return 0
	}
	last := t.Points[len(t.Points)-1]
	epochs := last.Epoch
	if epochs <= 0 {
		epochs = len(t.Points)
	}
	return last.Time / time.Duration(epochs)
}

// Accuracy returns the fraction of pred equal to want.
func Accuracy(pred, want []int) float64 {
	if len(pred) != len(want) {
		panic("metrics: Accuracy length mismatch")
	}
	if len(pred) == 0 {
		return 0
	}
	correct := 0
	for i := range pred {
		if pred[i] == want[i] {
			correct++
		}
	}
	return float64(correct) / float64(len(pred))
}

func (p Point) String() string {
	return fmt.Sprintf("epoch %d t=%v F=%.6g acc=%.4f", p.Epoch, p.Time, p.Objective, p.TestAccuracy)
}
