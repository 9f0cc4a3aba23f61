package dist_test

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"newtonadmm/internal/baselines"
	"newtonadmm/internal/ckpt"
	"newtonadmm/internal/cluster"
	"newtonadmm/internal/core"
	"newtonadmm/internal/datasets"
	"newtonadmm/internal/dist"
	"newtonadmm/internal/faultinject"
)

// The acceptance pin, once for every distributed solver: train K epochs
// straight vs. train k, kill, resume to K — identical trace and final
// iterate, bitwise. The device kernels use chunk-ordered reductions, so
// the only way this holds is if State/Restore capture the complete solver
// state (for Newton-ADMM: z, zPrev, x, y and the spectral-penalty BB
// history; for the stochastic solvers: the iterate plus a sample order
// that is a function of (Seed, rank, epoch) alone).

const (
	resumeEpochs = 6
	resumeRanks  = 2
)

// solverCase builds a fresh dist.Solver; rhos, when non-nil, reads the
// Newton-ADMM per-rank penalties of the run that solver just finished.
type solverCase struct {
	name  string
	build func() (s dist.Solver, rhos func() []float64)
}

func baseline(s dist.Solver) func() (dist.Solver, func() []float64) {
	return func() (dist.Solver, func() []float64) { return s, nil }
}

var svrg = baselines.SVRGOptions{Step: 1, Snapshots: 2}

var solverCases = []solverCase{
	{"newton-admm", func() (dist.Solver, func() []float64) {
		out := &core.Result{FinalRhos: make([]float64, resumeRanks)}
		return core.Solver(core.Options{Penalty: "spectral"}, out), func() []float64 { return out.FinalRhos }
	}},
	{"giant", baseline(baselines.GIANT(baselines.GiantOptions{}))},
	{"disco", baseline(baselines.DiSCO(baselines.DiSCOOptions{PCGIters: 5, LocalCGIters: 3}))},
	{"inexact-dane", baseline(baselines.InexactDANE(baselines.DANEOptions{Seed: 1, SVRG: svrg}))},
	{"aide", baseline(baselines.AIDE(baselines.AIDEOptions{DANE: baselines.DANEOptions{Seed: 2, SVRG: svrg}, Tau: 0.1}))},
	{"sync-sgd", baseline(baselines.SyncSGD(baselines.SGDOptions{BatchSize: 32, Step: 0.5, Momentum: 0.9, Seed: 3}))},
}

func resumeDataset(t *testing.T) *datasets.Dataset {
	t.Helper()
	ds, err := datasets.Generate(datasets.MNISTLike(0.03))
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func resumeOpts(dir string) dist.RunOptions {
	return dist.RunOptions{Epochs: resumeEpochs, Lambda: 1e-4, CheckpointDir: dir}
}

func resumeCluster() cluster.Config {
	return cluster.Config{
		Ranks:             resumeRanks,
		Network:           cluster.ZeroCost,
		DeviceWorkers:     1,
		CollectiveTimeout: 10 * time.Second,
	}
}

// assertBitwiseEqual pins two runs to each other bit for bit. Trace Time
// is excluded: the virtual clock includes real wall-clock compute, which
// no checkpoint can (or should) reproduce.
func assertBitwiseEqual(t *testing.T, label string, base, got *dist.Result, baseRhos, gotRhos []float64) {
	t.Helper()
	if len(got.Trace.Points) != len(base.Trace.Points) {
		t.Fatalf("%s: trace length %d, want %d", label, len(got.Trace.Points), len(base.Trace.Points))
	}
	for i, bp := range base.Trace.Points {
		gp := got.Trace.Points[i]
		if gp.Epoch != bp.Epoch || math.Float64bits(gp.Objective) != math.Float64bits(bp.Objective) {
			t.Fatalf("%s: trace[%d] = (%d, %.17g), want (%d, %.17g) (not bitwise)",
				label, i, gp.Epoch, gp.Objective, bp.Epoch, bp.Objective)
		}
	}
	for j := range base.X {
		if math.Float64bits(got.X[j]) != math.Float64bits(base.X[j]) {
			t.Fatalf("%s: X[%d] = %.17g, want %.17g (not bitwise)", label, j, got.X[j], base.X[j])
		}
	}
	if len(gotRhos) != len(baseRhos) {
		t.Fatalf("%s: %d rhos, want %d", label, len(gotRhos), len(baseRhos))
	}
	for r := range baseRhos {
		if math.Float64bits(gotRhos[r]) != math.Float64bits(baseRhos[r]) {
			t.Fatalf("%s: rho[%d] = %v, want %v", label, r, gotRhos[r], baseRhos[r])
		}
	}
}

// run executes one driver run of c; wrap, when non-nil, is the fault seam.
func (c solverCase) run(t *testing.T, ds *datasets.Dataset, opts dist.RunOptions, wrap func(int, cluster.Transport) cluster.Transport) (*dist.Result, []float64, error) {
	t.Helper()
	s, rhos := c.build()
	ccfg := resumeCluster()
	ccfg.WrapTransport = wrap
	res, err := dist.Run(ccfg, ds, opts, s)
	if rhos == nil || err != nil {
		return res, nil, err
	}
	return res, rhos(), nil
}

// crashRankAfter wraps one rank with a deterministic crash; wraps counts
// invocations so restart attempts (which re-wrap every rank) can leave
// later attempts fault-free.
func crashRankAfter(victim, sends int, onlyFirstAttempt bool) func(int, cluster.Transport) cluster.Transport {
	var wraps atomic.Int64
	return func(rank int, tr cluster.Transport) cluster.Transport {
		attempt := int(wraps.Add(1)-1) / resumeRanks
		if rank != victim || (onlyFirstAttempt && attempt > 0) {
			return tr
		}
		f := faultinject.WrapTransport(tr)
		f.CrashAfter(sends)
		return f
	}
}

func TestResumeTable(t *testing.T) {
	ds := resumeDataset(t)
	for _, c := range solverCases {
		t.Run(c.name, func(t *testing.T) {
			// The uninterrupted reference (no checkpointing at all), with
			// rank 1 behind a fault-free gate that counts its sends: the
			// crash below lands at 5/12 of the checkpointed schedule (two
			// more sends per epoch, the snapshot gather), i.e. in epoch 3
			// of 6, after at least one snapshot.
			var gate *faultinject.Transport
			base, baseRhos, err := c.run(t, ds, resumeOpts(""), func(rank int, tr cluster.Transport) cluster.Transport {
				if rank != 1 {
					return tr
				}
				gate = faultinject.WrapTransport(tr)
				return gate
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(base.Trace.Points) != resumeEpochs+1 {
				t.Fatalf("reference trace has %d points", len(base.Trace.Points))
			}
			crashAt := (int(gate.Calls()) + 2*resumeEpochs) * 5 / 12

			t.Run("kill-resume", func(t *testing.T) {
				dir := t.TempDir()
				partial, _, err := c.run(t, ds, resumeOpts(dir), crashRankAfter(1, crashAt, false))
				if err == nil {
					t.Fatal("crashed run reported success")
				}
				if !cluster.IsCommError(err) {
					t.Fatalf("crash not surfaced as a typed comm error: %v", err)
				}
				if partial == nil || partial.FailedEpoch < 2 || partial.FailedEpoch > resumeEpochs {
					t.Fatalf("partial result missing a mid-run failed-at epoch: %+v", partial)
				}
				if len(partial.Trace.Points) == 0 {
					t.Fatal("partial trace discarded on failure")
				}
				if files, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.nack")); len(files) == 0 {
					t.Fatal("no checkpoint was written before the crash")
				}

				opts := resumeOpts(dir)
				opts.Resume = true
				resumed, rhos, err := c.run(t, ds, opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				assertBitwiseEqual(t, "kill+resume", base, resumed, baseRhos, rhos)
				// Work carried over: the resumed trace extends the partial
				// one instead of restarting from scratch.
				if len(resumed.Trace.Points) <= len(partial.Trace.Points)-1 {
					t.Fatalf("resume did not extend the partial trace (%d vs %d points)",
						len(resumed.Trace.Points), len(partial.Trace.Points))
				}
			})

			// One Run call: rank 1 crashes on the first attempt, the
			// bounded restart policy rebuilds the cluster and resumes from
			// the latest checkpoint.
			t.Run("in-place-restart", func(t *testing.T) {
				opts := resumeOpts(t.TempDir())
				opts.MaxRestarts = 2
				opts.RestartBackoff = time.Millisecond
				restarted, rhos, err := c.run(t, ds, opts, crashRankAfter(1, crashAt, true))
				if err != nil {
					t.Fatalf("restart did not recover: %v", err)
				}
				assertBitwiseEqual(t, "in-place restart", base, restarted, baseRhos, rhos)
			})

			// The fingerprint gate: a checkpoint from a different
			// configuration must fail typed, not silently seed another run.
			t.Run("foreign-checkpoint", func(t *testing.T) {
				dir := t.TempDir()
				opts := resumeOpts(dir)
				opts.Epochs = 1
				if _, _, err := c.run(t, ds, opts, nil); err != nil {
					t.Fatal(err)
				}
				foreign := resumeOpts(dir)
				foreign.Epochs = 2 // allowed to differ: epochs are not fingerprinted
				foreign.Lambda = 42
				foreign.Resume = true
				if _, _, err := c.run(t, ds, foreign, nil); !errors.Is(err, ckpt.ErrFingerprintMismatch) {
					t.Fatalf("foreign checkpoint: err = %v, want ErrFingerprintMismatch", err)
				}
			})

			// The time-to-theta protocol: every solver stops at the first
			// trace point that reaches the target.
			t.Run("target-stop", func(t *testing.T) {
				opts := resumeOpts("")
				opts.TargetObjective = base.Trace.Points[2].Objective
				want := 2
				for _, p := range base.Trace.Points[:2] {
					if p.Objective <= opts.TargetObjective {
						want = p.Epoch
						break
					}
				}
				res, _, err := c.run(t, ds, opts, nil)
				if err != nil {
					t.Fatal(err)
				}
				if final, _ := res.Trace.Final(); final.Epoch != want {
					t.Fatalf("stopped at epoch %d, want %d", final.Epoch, want)
				}
			})
		})
	}
}

// A run that snapshots every epoch leaves only the newest two files, and
// the older one is there to fall back to: with the newest torn, a resume
// replays the last epoch and ends bitwise where an uninterrupted run does.
func TestCheckpointRetentionKeepsTwoAndResumes(t *testing.T) {
	ds := resumeDataset(t)
	c := solverCases[0] // newton-admm: shared and per-rank state
	opts := dist.RunOptions{Epochs: 10, Lambda: 1e-4}
	base, baseRhos, err := c.run(t, ds, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts.CheckpointDir, opts.CheckpointEvery = dir, 1
	if _, _, err := c.run(t, ds, opts, nil); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "ckpt-*.nack"))
	want := []string{filepath.Join(dir, ckpt.FileName(9)), filepath.Join(dir, ckpt.FileName(10))}
	if !slices.Equal(files, want) {
		t.Fatalf("checkpoint files %v, want %v", files, want)
	}
	if err := os.WriteFile(want[1], []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	opts.Resume = true
	resumed, rhos, err := c.run(t, ds, opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, "resume past a torn newest snapshot", base, resumed, baseRhos, rhos)
}

// TestGoldenFingerprints pins checkpoint compatibility (2 ranks,
// MNISTLike(0.03), lambda 1e-4, every other option at its default): a
// snapshot written by a run with these options still loads. golden was
// recorded when the weight layout joined the fingerprint; classMajor is
// what the same runs carried while solver state was class-major, and a
// snapshot carrying it must be refused rather than resumed transposed.
func TestGoldenFingerprints(t *testing.T) {
	ds := resumeDataset(t)
	for _, g := range []struct {
		name               string
		golden, classMajor uint64
		solve              func(dir string, resume bool) error
	}{
		{"newton-admm", 0x3d8b0b088a5c161f, 0xf3e1d45d5b5fe5ca, func(dir string, resume bool) error {
			_, err := dist.Run(resumeCluster(), ds, dist.RunOptions{Epochs: 1, Lambda: 1e-4, CheckpointDir: dir, Resume: resume},
				core.Solver(core.Options{Penalty: "spectral"}, nil))
			return err
		}},
		{"giant", 0x4ba978aee0fe62d1, 0x1f23f6515e2a569c, func(dir string, resume bool) error {
			_, err := dist.Run(resumeCluster(), ds, dist.RunOptions{Epochs: 1, Lambda: 1e-4, CheckpointDir: dir, Resume: resume},
				baselines.GIANT(baselines.GiantOptions{}))
			return err
		}},
	} {
		dir := t.TempDir()
		if err := g.solve(dir, false); err != nil {
			t.Fatal(err)
		}
		snap, err := ckpt.LoadLatest(dir, g.golden)
		if err != nil {
			t.Fatalf("%s: checkpoint does not carry the golden fingerprint: %v", g.name, err)
		}
		if snap.Solver != g.name || snap.Iter != 1 || len(snap.Ranks) != resumeRanks {
			t.Fatalf("%s: snapshot = solver %q iter %d ranks %d", g.name, snap.Solver, snap.Iter, len(snap.Ranks))
		}

		old := t.TempDir()
		snap.Fingerprint = g.classMajor
		if err := ckpt.Save(old, snap); err != nil {
			t.Fatal(err)
		}
		if err := g.solve(old, true); !errors.Is(err, ckpt.ErrFingerprintMismatch) {
			t.Fatalf("%s: resuming a class-major snapshot: err = %v, want ErrFingerprintMismatch", g.name, err)
		}
	}
}
