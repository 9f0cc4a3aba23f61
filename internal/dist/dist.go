// Package dist holds what every distributed solver in the reproduction
// shares: Run, the one outer epoch loop their Steppers run under, the
// shard-local softmax problem each rank optimizes, the one-round global
// gradient/objective collective, and the frozen-clock convergence recorder
// with the Trace it fills — the evaluation's vocabulary of virtual-time
// convergence histories and time- or epochs-to-objective queries
// (internal/harness turns the paper's theta criterion into an objective
// target).
//
// Two regularization conventions coexist in the paper. The consensus
// solver (Newton-ADMM) keeps g(z) = Lambda/2 ||z||^2 at the master's
// z-update, so its local problems carry no L2 at all; the data-parallel
// baselines (GIANT, DiSCO, DANE, SGD) need sum_i f_i = F including the
// regularizer, so each shard carries Lambda scaled by its sample
// fraction. BuildLocal's shardL2 flag selects between them, and the
// Recorder adds the global regularizer back when it was left out.
package dist

import (
	"math"
	"time"

	"newtonadmm/internal/ckpt"
	"newtonadmm/internal/cluster"
	"newtonadmm/internal/datasets"
	"newtonadmm/internal/linalg"
	"newtonadmm/internal/loss"
)

// Local is one rank's share of a distributed training run.
type Local struct {
	// Problem is the softmax objective over this rank's contiguous shard,
	// executing on the rank's private device.
	Problem *loss.Softmax
	// Lambda is the *global* L2 strength (regardless of how much of it the
	// shard problem carries).
	Lambda float64
	// N is the global training-set size (sum of all shards).
	N int
	// ShardedL2 records whether Problem.L2 is Lambda scaled by the shard
	// fraction (true: summing shard objectives reproduces the fully
	// regularized global objective) or zero (false: the Newton-ADMM
	// convention, where the master's z-update owns the regularizer).
	ShardedL2 bool

	buf []float64 // dim+1 scratch for the fused gradient+value allreduce
}

// BuildLocal constructs rank node.Rank()'s Local over its shard of ds,
// a view of ds's rows (no copy).
// With shardL2 the shard problem carries Lambda * n_i/n so that the shard
// objectives sum to the global objective; without it the shard problem is
// unregularized (the ADMM subproblem convention).
func BuildLocal(node *cluster.Node, ds *datasets.Dataset, lambda float64, shardL2 bool) (*Local, error) {
	n := ds.TrainSize()
	lo, hi := datasets.ShardRange(n, node.Size(), node.Rank())
	l2 := 0.0
	if shardL2 && n > 0 {
		l2 = lambda * float64(hi-lo) / float64(n)
	}
	// Nothing writes a training set after generation, so the shard's
	// rows and labels can share it.
	prob, err := loss.NewSoftmax(node.Dev, ds.Xtrain.Range(lo, hi), ds.Ytrain[lo:hi:hi], ds.Classes, l2)
	if err != nil {
		return nil, err
	}
	return &Local{Problem: prob, Lambda: lambda, N: n, ShardedL2: shardL2}, nil
}

// GlobalGradient fills g with the gradient of the *global* objective at x
// and returns the global objective value, using a single allreduce round
// (value and gradient travel in one fused payload). When the shards do
// not carry the regularizer, it is added exactly once after the reduce.
func (l *Local) GlobalGradient(node *cluster.Node, x, g []float64) float64 {
	dim := l.Problem.Dim()
	if len(l.buf) != dim+1 {
		l.buf = make([]float64, dim+1)
	}
	val := l.Problem.Gradient(x, g)
	copy(l.buf, g)
	l.buf[dim] = val
	node.AllReduceSum(l.buf)
	copy(g, l.buf[:dim])
	total := l.buf[dim]
	if !l.ShardedL2 {
		linalg.Axpy(l.Lambda, x, g)
		nrm := linalg.Nrm2(x)
		total += float64(0.5 * l.Lambda * nrm * nrm)
	}
	return total
}

// Trace is a solver's convergence history on one dataset.
type Trace struct {
	Solver  string
	Dataset string
	Points  []ckpt.TracePoint
}

// Append adds a point.
func (t *Trace) Append(p ckpt.TracePoint) { t.Points = append(t.Points, p) }

// Final returns the last point; ok is false for an empty trace.
func (t *Trace) Final() (ckpt.TracePoint, bool) {
	if len(t.Points) == 0 {
		return ckpt.TracePoint{}, false
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

// Recorder accumulates a convergence trace with the virtual clock frozen,
// so instrumentation (global objective, test accuracy) costs the measured
// algorithm nothing — the harness convention used for every figure.
type Recorder struct {
	// Trace is the history recorded so far. Points are appended on rank 0;
	// other ranks keep an empty trace but still participate in the
	// collective so the schedule stays aligned.
	Trace Trace

	local    *Local
	ds       *datasets.Dataset
	evalTest bool
	buf      []float64 // 1-element allreduce scratch
	model    []float64 // the iterate class-major, for Accuracy
}

// NewRecorder builds a recorder for one solver run.
func NewRecorder(solver string, ds *datasets.Dataset, local *Local, evalTestAccuracy bool) *Recorder {
	return &Recorder{
		Trace:    Trace{Solver: solver, Dataset: ds.Name},
		local:    local,
		ds:       ds,
		evalTest: evalTestAccuracy,
		buf:      make([]float64, 1),
	}
}

// Observe records one trace point at iterate x and returns the global
// objective (identical on every rank — the early-stopping contract). It
// is a collective: every rank must call it at the same point.
func (r *Recorder) Observe(node *cluster.Node, epoch int, x []float64) float64 {
	var obj float64
	node.Frozen(func() {
		r.buf[0] = r.local.Problem.Value(x)
		node.AllReduceSum(r.buf)
		obj = r.buf[0]
		if !r.local.ShardedL2 {
			nrm := linalg.Nrm2(x)
			obj += float64(0.5 * r.local.Lambda * nrm * nrm)
		}
		if node.Rank() == 0 {
			acc := math.NaN()
			if r.evalTest && r.ds.Xtest != nil && r.ds.TestSize() > 0 {
				r.model = loss.ToModel(r.model, x, r.ds.Classes-1)
				acc = r.local.Problem.Accuracy(r.ds.Xtest, r.ds.Ytest, r.model)
			}
			r.Trace.Append(ckpt.TracePoint{
				Epoch:        epoch,
				Time:         node.Clock(),
				Objective:    obj,
				TestAccuracy: acc,
				GradNorm:     math.NaN(),
			})
		}
	})
	return obj
}
