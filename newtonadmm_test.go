package newtonadmm

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"newtonadmm/internal/device"
	"newtonadmm/internal/loss"
)

func quickDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := GenerateDataset(DatasetOptions{
		Name: "api-test", Samples: 400, TestSamples: 120, Features: 10,
		Classes: 3, Seed: 7, Separation: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestDatasetAccessors(t *testing.T) {
	ds := quickDataset(t)
	if ds.Name() != "api-test" || ds.Classes() != 3 || ds.Features() != 10 {
		t.Fatalf("accessors: %s %d %d", ds.Name(), ds.Classes(), ds.Features())
	}
	if ds.TrainSize() != 400 || ds.TestSize() != 120 {
		t.Fatalf("sizes: %d %d", ds.TrainSize(), ds.TestSize())
	}
}

func TestPresetDataset(t *testing.T) {
	ds, err := PresetDataset("higgs", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Classes() != 2 || ds.Features() != 28 {
		t.Fatalf("higgs preset: %d classes, %d features", ds.Classes(), ds.Features())
	}
	if _, err := PresetDataset("nope", 1); err == nil {
		t.Fatal("unknown preset accepted")
	}
}

func TestTrainAllSolvers(t *testing.T) {
	ds := quickDataset(t)
	for _, solver := range []string{
		SolverNewtonADMM, SolverGIANT, SolverInexactDANE,
		SolverAIDE, SolverDiSCO, SolverSyncSGD, SolverNewton,
	} {
		opts := Options{
			Solver: solver, Ranks: 2, Epochs: 5, Lambda: 1e-3,
			Network: "none", EvalTestAccuracy: true, StepSize: 1, Tau: 1,
		}
		m, err := Train(ds, opts)
		if err != nil {
			t.Fatalf("%s: %v", solver, err)
		}
		if len(m.Weights) != 2*10 {
			t.Fatalf("%s: weight dim %d", solver, len(m.Weights))
		}
		if len(m.Trace) == 0 {
			t.Fatalf("%s: empty trace", solver)
		}
		first, last := m.Trace[0], m.Trace[len(m.Trace)-1]
		if !(last.Objective < first.Objective) {
			t.Fatalf("%s: no objective progress (%v -> %v)", solver, first.Objective, last.Objective)
		}
	}
}

func TestTrainDefaultSolverReachesGoodAccuracy(t *testing.T) {
	ds := quickDataset(t)
	m, err := Train(ds, Options{Epochs: 40, Lambda: 1e-4, Network: "none", EvalTestAccuracy: true})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(m.TestAccuracy) || m.TestAccuracy < 0.55 {
		t.Fatalf("test accuracy %v", m.TestAccuracy)
	}
	if m.Solver != SolverNewtonADMM {
		t.Fatalf("default solver %q", m.Solver)
	}
	if m.AvgEpochTime <= 0 || m.TotalTime <= 0 {
		t.Fatalf("timings: %v %v", m.AvgEpochTime, m.TotalTime)
	}
}

func TestTrainValidation(t *testing.T) {
	ds := quickDataset(t)
	if _, err := Train(nil, Options{}); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := Train(ds, Options{Solver: "bogus"}); err == nil {
		t.Fatal("unknown solver accepted")
	}
	if _, err := Train(ds, Options{Network: "carrier-pigeon"}); err == nil {
		t.Fatal("unknown network accepted")
	}
}

func TestModelPredictAndEvaluate(t *testing.T) {
	ds := quickDataset(t)
	m, err := Train(ds, Options{Epochs: 30, Lambda: 1e-4, Network: "none"})
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := m.Evaluate(ds)
	if err != nil {
		t.Fatal(err)
	}
	if train < 0.6 || math.IsNaN(test) {
		t.Fatalf("evaluate: train=%v test=%v", train, test)
	}
	pred, err := m.Predict([][]float64{make([]float64, 10)})
	if err != nil {
		t.Fatal(err)
	}
	if len(pred) != 1 || pred[0] < 0 || pred[0] >= 3 {
		t.Fatalf("predict: %v", pred)
	}
	if _, err := m.Predict([][]float64{make([]float64, 3)}); err == nil {
		t.Fatal("wrong feature count accepted")
	}
	if got, _ := m.Predict(nil); got != nil {
		t.Fatal("empty predict should return nil")
	}
}

// TestModelBoundaryConvertsLayout: a trained model's class-major Weights,
// evaluated and served, classify exactly as the loss kernels do on the
// same weights in the solver's feature-major layout.
func TestModelBoundaryConvertsLayout(t *testing.T) {
	ds := quickDataset(t)
	m, err := Train(ds, Options{Epochs: 5, Lambda: 1e-3, Network: "none"})
	if err != nil {
		t.Fatal(err)
	}
	z := loss.FromModel(nil, m.Weights, m.Classes-1)
	dev := device.New("boundary", 1)
	defer dev.Close()
	scorer, err := loss.NewScorer(dev, m.Classes)
	if err != nil {
		t.Fatal(err)
	}
	x := ds.inner.Xtest.(loss.Dense).M
	want := make([]int, x.Rows)
	scorer.PredictInto(loss.Dense{M: x}, z, want)
	rows := make([][]float64, x.Rows)
	correct := 0
	for i := range rows {
		rows[i] = x.Row(i)
		if want[i] == ds.inner.Ytest[i] {
			correct++
		}
	}
	if _, test, err := m.Evaluate(ds); err != nil || test != float64(correct)/float64(x.Rows) {
		t.Fatalf("Evaluate test accuracy %v (err %v), kernels on the solver layout %v", test, err, float64(correct)/float64(x.Rows))
	}
	got, err := m.Predict(rows)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: served class %d, kernels %d", i, got[i], want[i])
		}
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	ds := quickDataset(t)
	m, err := Train(ds, Options{Epochs: 10, Lambda: 1e-3, Network: "none"})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.gob")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Classes != m.Classes || m2.Features != m.Features || len(m2.Weights) != len(m.Weights) {
		t.Fatal("model metadata lost")
	}
	for i := range m.Weights {
		if m2.Weights[i] != m.Weights[i] {
			t.Fatal("weights corrupted")
		}
	}
}

func TestLoadLIBSVMRoundTrip(t *testing.T) {
	dir := t.TempDir()
	train := filepath.Join(dir, "train.svm")
	content := "0 1:1.5 3:-2\n1 2:0.5\n0 1:1 2:1 3:1\n1 3:2\n"
	if err := os.WriteFile(train, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := LoadLIBSVM(train, train)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Classes() != 2 || ds.TrainSize() != 4 || ds.TestSize() != 4 {
		t.Fatalf("loaded: %d classes, %d train, %d test", ds.Classes(), ds.TrainSize(), ds.TestSize())
	}
	if _, err := LoadLIBSVM(filepath.Join(dir, "missing.svm"), ""); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestNetworkByName(t *testing.T) {
	for _, name := range []string{"", "infiniband", "10g", "1g", "wan", "none"} {
		if _, err := NetworkByName(name); err != nil {
			t.Fatalf("network %q: %v", name, err)
		}
	}
	if _, err := NetworkByName("5g"); err == nil {
		t.Fatal("unknown network accepted")
	}
}

func TestTrainOverTCP(t *testing.T) {
	ds := quickDataset(t)
	m, err := Train(ds, Options{Epochs: 5, Lambda: 1e-3, Network: "none", UseTCP: true, Ranks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Trace) == 0 {
		t.Fatal("no trace over TCP")
	}
}
