package dist

import (
	"errors"
	"os"
	"slices"
	"strings"
	"testing"

	"newtonadmm/internal/ckpt"
	"newtonadmm/internal/cluster"
	"newtonadmm/internal/linalg"
)

var errFakeRestore = errors.New("fake stepper: restore refused")

// fakeStepper is plain distributed gradient descent: enough of a solver
// to give the driver a monotone objective, nothing more.
type fakeStepper struct {
	node        *cluster.Node
	local       *Local
	x, g        []float64
	failRestore bool
}

func (s *fakeStepper) Step(int) error {
	s.local.GlobalGradient(s.node, s.x, s.g)
	linalg.Axpy(-0.5/float64(s.local.N), s.g, s.x)
	return nil
}

func (s *fakeStepper) Iterate() []float64 { return s.x }

func (s *fakeStepper) State() (shared, rank []float64) { return s.x, nil }

func (s *fakeStepper) Restore(shared, _ []float64) error {
	if s.failRestore {
		return errFakeRestore
	}
	copy(s.x, shared)
	return nil
}

func fakeSolver(failRestore bool) Solver {
	return Solver{
		Name:          "fake",
		DefaultEpochs: 7,
		ShardL2:       true,
		Fingerprint:   func(*ckpt.Fingerprinter) {},
		Build: func(node *cluster.Node, local *Local) Stepper {
			dim := local.Problem.Dim()
			return &fakeStepper{node: node, local: local, x: make([]float64, dim), g: make([]float64, dim), failRestore: failRestore}
		},
	}
}

func runFake(t *testing.T, opts RunOptions, failRestore bool) (*Result, error) {
	t.Helper()
	opts.Lambda = 1e-3
	return Run(cluster.Config{Ranks: 2, Network: cluster.ZeroCost, DeviceWorkers: 1}, testDataset(t), opts, fakeSolver(failRestore))
}

func traceEpochs(res *Result) []int {
	var out []int
	for _, p := range res.Trace.Points {
		out = append(out, p.Epoch)
	}
	return out
}

func TestRunEvalEveryThinsTraceAndKeepsLastEpoch(t *testing.T) {
	res, err := runFake(t, RunOptions{EvalEvery: 3}, false) // Epochs: the solver's 7
	if err != nil {
		t.Fatal(err)
	}
	if got, want := traceEpochs(res), []int{0, 3, 6, 7}; !slices.Equal(got, want) {
		t.Fatalf("trace epochs %v, want %v", got, want)
	}
}

func TestRunTargetStopsAtFirstQualifyingObservation(t *testing.T) {
	free, err := runFake(t, RunOptions{Epochs: 8, EvalEvery: 2}, false)
	if err != nil {
		t.Fatal(err)
	}
	// The objective at epoch 3 is never observed; the first observation at
	// or below it is epoch 4's.
	every, err := runFake(t, RunOptions{Epochs: 8}, false)
	if err != nil {
		t.Fatal(err)
	}
	target := every.Trace.Points[3].Objective
	res, err := runFake(t, RunOptions{Epochs: 8, EvalEvery: 2, TargetObjective: target}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := traceEpochs(res), []int{0, 2, 4}; !slices.Equal(got, want) {
		t.Fatalf("trace epochs %v, want %v (free run: %v)", got, want, traceEpochs(free))
	}
	if final, _ := res.Trace.Final(); final.Objective > target {
		t.Fatalf("stopped above target: %v > %v", final.Objective, target)
	}
}

func TestRunCheckpointCadenceIncludesFinalEpoch(t *testing.T) {
	dir := t.TempDir()
	if _, err := runFake(t, RunOptions{CheckpointDir: dir, CheckpointEvery: 3}, false); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	want := []string{ckpt.FileName(6), ckpt.FileName(7)}
	if !slices.Equal(names, want) {
		t.Fatalf("checkpoint files %v, want %v", names, want)
	}
}

func TestRunRestoreErrorSurvivesWrapping(t *testing.T) {
	dir := t.TempDir()
	if _, err := runFake(t, RunOptions{Epochs: 2, CheckpointDir: dir}, false); err != nil {
		t.Fatal(err)
	}
	res, err := runFake(t, RunOptions{Epochs: 4, CheckpointDir: dir, Resume: true}, true)
	if !errors.Is(err, errFakeRestore) {
		t.Fatalf("err = %v, want it to wrap the stepper's Restore error", err)
	}
	if res == nil || res.FailedEpoch != 0 {
		t.Fatalf("a run that never started an epoch reported %+v", res)
	}
}

func TestRunResumeWithoutDirIsAnError(t *testing.T) {
	res, err := runFake(t, RunOptions{Resume: true}, false)
	if err == nil || res != nil || !strings.Contains(err.Error(), "CheckpointDir") {
		t.Fatalf("Resume without CheckpointDir: res %v, err %v", res, err)
	}
}
