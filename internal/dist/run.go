package dist

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"newtonadmm/internal/ckpt"
	"newtonadmm/internal/cluster"
	"newtonadmm/internal/datasets"
	"newtonadmm/internal/loss"
)

// Stepper is one rank's half of a distributed solver: four duties. Run
// owns the rest — shards, trace, stopping, checkpoints, restarts.
type Stepper interface {
	// Step advances outer iteration k (1-based); a collective.
	Step(k int) error
	// Iterate is the vector the trace observes and Run returns; Steps
	// update it in place.
	Iterate() []float64
	// State exports all a resumed run needs as flat floats: shared is
	// identical on every rank, rank is private to this one (nil if none).
	State() (shared, rank []float64)
	// Restore is the inverse of State, applied to a freshly built stepper.
	Restore(shared, rank []float64) error
}

// Finisher is a stepper that reports more than the iterate (Newton-ADMM's
// residuals and penalties): Finish is a collective, called once after the
// last epoch of an attempt that did not fail.
type Finisher interface{ Finish() }

// Solver is what an algorithm hands Run.
type Solver struct {
	Name          string // labels the trace and the checkpoint files
	DefaultEpochs int    // the budget when RunOptions.Epochs <= 0
	ShardL2       bool   // the regularization convention (see BuildLocal)
	// Fingerprint feeds the options that shape this solver's trajectory
	// into the run fingerprint, between the common fields.
	Fingerprint func(f *ckpt.Fingerprinter)
	// Build constructs one rank's stepper at the zero iterate.
	Build func(node *cluster.Node, local *Local) Stepper
}

// RunOptions is the run control every distributed solver shares.
type RunOptions struct {
	// Epochs is the outer-iteration budget; <=0 selects the solver's own.
	Epochs int
	// Lambda is the global L2 regularization strength.
	Lambda float64
	// EvalEvery records a trace point every this many epochs (and at the
	// last one); <=0 selects 1.
	EvalEvery int
	// EvalTestAccuracy also measures test accuracy at each trace point.
	EvalTestAccuracy bool
	// TargetObjective stops the run at the first trace point whose global
	// objective reaches it (the paper's time-to-theta protocol); 0 is off.
	TargetObjective float64
	// CheckpointDir, when set, gets an atomic, CRC-checked snapshot of the
	// full solver state (internal/ckpt) every CheckpointEvery epochs (<=0
	// selects 1) and at the last one; only the newest two are kept. A
	// fresh (non-Resume) run clears it.
	CheckpointDir   string
	CheckpointEvery int
	// Resume continues from the latest good checkpoint in CheckpointDir,
	// bitwise-identically to an uninterrupted run. A checkpoint from a
	// different solver/dataset/config is rejected (fingerprint mismatch);
	// an empty directory is a fresh start; no directory is an error.
	Resume bool
	// MaxRestarts bounds in-place restarts after a typed communication
	// error (crashed or hung rank), each from the latest checkpoint this
	// run wrote; without CheckpointDir a restart retries from epoch 0.
	MaxRestarts int
	// RestartBackoff is the sleep before the first restart, doubling per
	// attempt; <=0 selects the cluster default (100ms).
	RestartBackoff time.Duration
}

// Result reports one distributed run.
type Result struct {
	X     []float64 // final iterate (identical on all ranks), class-major as a model holds it
	Trace Trace     // convergence history recorded on rank 0
	Stats []cluster.NodeStats
	// TestAccuracy is the final test accuracy (NaN when not measured).
	TestAccuracy float64
	// FailedEpoch is the outer iteration in flight when a failed run went
	// down (0 when the run succeeded or failed before the first epoch).
	FailedEpoch int
}

// fingerprint binds checkpoints to the run's identity: everything that
// shapes the optimization trajectory (solver, data, cluster width, and
// the mathematically relevant options). Epochs is deliberately excluded
// so a run can resume toward a larger epoch budget, and the transport
// choice is excluded because the math is transport-independent. The
// solver state's weight layout is included, so a snapshot of state in
// another layout is refused rather than resumed transposed. The field
// order is the checkpoint-compatibility contract.
func fingerprint(ranks int, ds *datasets.Dataset, opts RunOptions, s Solver) uint64 {
	f := ckpt.NewFingerprinter()
	f.String(s.Name)
	f.Int(ranks)
	f.String(ds.Name)
	f.Int(ds.Dim())
	f.Int(ds.Classes)
	f.Int(ds.TrainSize())
	f.Float(opts.Lambda)
	s.Fingerprint(f)
	f.Int(opts.EvalEvery)
	f.Bool(opts.EvalTestAccuracy)
	f.Float(opts.TargetObjective)
	f.String(loss.Layout)
	return f.Sum()
}

// Run trains ds with solver s on a simulated cluster: the repository's one
// outer epoch loop. On failure it returns the partial result (trace so
// far, failed-at epoch) with the error, so callers can flush the history.
func Run(cfg cluster.Config, ds *datasets.Dataset, opts RunOptions, s Solver) (*Result, error) {
	if opts.Epochs <= 0 {
		opts.Epochs = s.DefaultEpochs
	}
	opts.EvalEvery = max(opts.EvalEvery, 1)
	opts.CheckpointEvery = max(opts.CheckpointEvery, 1)
	if opts.Resume && opts.CheckpointDir == "" {
		return nil, errors.New("dist: Resume is set but CheckpointDir is empty: no directory to resume from")
	}
	ranks := max(cfg.Ranks, 1)
	fp := fingerprint(ranks, ds, opts, s)
	if opts.CheckpointDir != "" && !opts.Resume {
		// A restart within this run must never load a snapshot left over
		// from an older run in the same directory.
		if err := ckpt.Clear(opts.CheckpointDir); err != nil {
			return nil, err
		}
	}
	res := &Result{X: make([]float64, ds.Dim()), TestAccuracy: math.NaN()}
	inFlight := make([]int, ranks) // each rank writes only its own slot

	pol := cluster.RestartPolicy{MaxRestarts: opts.MaxRestarts, Backoff: opts.RestartBackoff}
	stats, err := cluster.RunRestart(cfg, pol, func(attempt int, node *cluster.Node) error {
		inFlight[node.Rank()] = 0
		local, err := BuildLocal(node, ds, opts.Lambda, s.ShardL2)
		if err != nil {
			return err
		}
		st := s.Build(node, local)
		rec := NewRecorder(s.Name, ds, local, opts.EvalTestAccuracy)
		// Deferred so the partial trace surfaces even when this rank dies
		// mid-run; the write happens before RunRestart returns.
		defer func() {
			if node.Rank() == 0 {
				res.Trace = rec.Trace
			}
		}()

		// Every rank loads the same snapshot: rank 0 writes one only after
		// a full collective round, so no rank reads a newer file than its
		// peers. A restart attempt always resumes; a first one when asked.
		start := 0
		if opts.CheckpointDir != "" && (opts.Resume || attempt > 0) {
			snap, err := ckpt.LoadLatest(opts.CheckpointDir, fp)
			switch {
			case errors.Is(err, ckpt.ErrNoCheckpoint):
				// Nothing saved yet: fresh start.
			case err != nil:
				return err
			case len(snap.Ranks) != node.Size():
				return fmt.Errorf("dist: checkpoint has %d rank sections, run has %d ranks", len(snap.Ranks), node.Size())
			default:
				if err := st.Restore(snap.Shared, snap.Ranks[node.Rank()]); err != nil {
					return err
				}
				start = int(snap.Iter)
				if node.Rank() == 0 {
					rec.RestoreTrace(snap.Trace)
				}
			}
		}

		if start == 0 {
			rec.Observe(node, 0, st.Iterate())
		}
		for k := start + 1; k <= opts.Epochs; k++ {
			inFlight[node.Rank()] = k
			if err := st.Step(k); err != nil {
				return err
			}
			if k%opts.EvalEvery == 0 || k == opts.Epochs {
				obj := rec.Observe(node, k, st.Iterate())
				if opts.TargetObjective != 0 && obj <= opts.TargetObjective {
					break // all ranks see the same allreduced objective
				}
			}
			// Snapshot after the epoch's trace point so a resume replays
			// the uninterrupted run bitwise, trace included.
			if opts.CheckpointDir != "" && (k%opts.CheckpointEvery == 0 || k == opts.Epochs) {
				if err := save(node, st, rec, opts.CheckpointDir, fp, k); err != nil {
					return err
				}
			}
		}
		if f, ok := st.(Finisher); ok {
			f.Finish()
		}
		inFlight[node.Rank()] = 0 // clean finish
		if node.Rank() == 0 {
			loss.ToModel(res.X, st.Iterate(), ds.Classes-1)
		}
		return nil
	})
	res.Stats, res.FailedEpoch = stats, slices.Max(inFlight)
	if p, ok := res.Trace.Final(); ok && err == nil {
		res.TestAccuracy = p.TestAccuracy
	}
	return res, err
}

// keepCheckpoints is how many snapshots a run leaves in its directory:
// the newest, and one more for LoadLatest to fall back to should the
// newest be corrupt.
const keepCheckpoints = 2

// save gathers every rank's private state at rank 0 and writes one
// snapshot atomically, then prunes the directory to keepCheckpoints,
// with the virtual clock frozen: checkpointing is harness
// infrastructure, not the algorithm being measured. The gather doubles
// as a barrier, so every rank has finished epoch k before the file
// appears.
func save(node *cluster.Node, st Stepper, rec *Recorder, dir string, fp uint64, k int) error {
	var err error
	node.Frozen(func() {
		shared, rank := st.State()
		parts := node.Gather(0, rank)
		if node.Rank() != 0 {
			return
		}
		err = ckpt.Save(dir, &ckpt.Snapshot{
			Fingerprint: fp,
			Iter:        uint64(k),
			Solver:      rec.Trace.Solver,
			Shared:      shared,
			Ranks:       parts,
			Trace:       rec.CheckpointTrace(),
		})
		if err == nil {
			err = ckpt.Prune(dir, keepCheckpoints)
		}
	})
	return err
}
