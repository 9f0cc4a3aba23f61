package newtonadmm

import (
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"newtonadmm/internal/ckpt"
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

// TestTrainReportsRanksUsed: Model.Ranks is the node count the run
// used, not the one asked for — the defaulted count for Ranks 0, one
// for the single-node Newton reference.
func TestTrainReportsRanksUsed(t *testing.T) {
	ds := quickDataset(t)
	for _, c := range []struct {
		solver     string
		ranks, use int
	}{
		{SolverNewtonADMM, 2, 2},
		{SolverNewtonADMM, 0, 4},
		{SolverNewton, 4, 1},
	} {
		m, err := Train(ds, Options{Solver: c.solver, Ranks: c.ranks, Epochs: 1, Network: "none"})
		if err != nil {
			t.Fatalf("%s ranks %d: %v", c.solver, c.ranks, err)
		}
		if m.Ranks != c.use {
			t.Errorf("%s asked for %d ranks: Model.Ranks = %d, want %d", c.solver, c.ranks, m.Ranks, c.use)
		}
	}
}

// The single-node Newton reference runs under the same epoch driver as
// the distributed solvers, so it checkpoints: 3 epochs, then a resume to
// 6, ends bitwise where a straight 6-epoch run does, trace included.
func TestTrainNewtonCheckpointResume(t *testing.T) {
	ds := quickDataset(t)
	opts := Options{Solver: SolverNewton, Epochs: 6, Lambda: 1e-3, Network: "none", CheckpointDir: t.TempDir()}
	straight, err := Train(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.CheckpointDir, opts.Epochs = t.TempDir(), 3
	if _, err := Train(ds, opts); err != nil {
		t.Fatal(err)
	}
	opts.Epochs, opts.Resume = 6, true
	resumed, err := Train(ds, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed.Trace) != 7 || len(straight.Trace) != 7 {
		t.Fatalf("trace lengths %d and %d, want 7 (epochs 0..6)", len(resumed.Trace), len(straight.Trace))
	}
	for i, p := range straight.Trace {
		q := resumed.Trace[i]
		if q.Epoch != p.Epoch || math.Float64bits(q.Objective) != math.Float64bits(p.Objective) {
			t.Fatalf("trace[%d] = (%d, %.17g), want (%d, %.17g)", i, q.Epoch, q.Objective, p.Epoch, p.Objective)
		}
	}
	for j, w := range straight.Weights {
		if math.Float64bits(resumed.Weights[j]) != math.Float64bits(w) {
			t.Fatalf("weight %d = %.17g, want %.17g", j, resumed.Weights[j], w)
		}
	}
	if !(straight.Trace[6].Objective < straight.Trace[3].Objective) {
		t.Fatalf("no progress after the resume point: %v -> %v", straight.Trace[3].Objective, straight.Trace[6].Objective)
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

// gobModel is a model file as the encoding/gob format before the ckpt
// snapshot wrote it: a two-class, two-feature model with one trace point.
const gobModel = "" +
	"ff987f030101054d6f64656c01ff8000010a01075765696768747301ff82000107436c61" +
	"73736573010400010846656174757265730104000106536f6c766572010c00010552616e" +
	"6b730104000105547261636501ff8600010c546573744163637572616379010800010954" +
	"6f74616c54696d65010400010c41766745706f636854696d65010400010b4661696c6564" +
	"45706f6368010400000017ff81020101095b5d666c6f6174363401ff82000108000026ff" +
	"85020101175b5d6e6577746f6e61646d6d2e5472616365506f696e7401ff860001ff8400" +
	"004dff830301010a5472616365506f696e7401ff84000104010545706f63680104000107" +
	"5365636f6e647301080001094f626a656374697665010800010c54657374416363757261" +
	"6379010800000045ff800102fee03ffef4bf01040104010b6e6577746f6e2d61646d6d01" +
	"020101010201fee03f01f8333333333333e33f01fee83f0001fee83f01fc7735940001fc" +
	"7735940000"

// modelBits flattens every field of m but Solver, floats as their bits,
// so two models compare equal bitwise with NaNs included.
func modelBits(m *Model) []uint64 {
	f := math.Float64bits
	out := []uint64{uint64(m.Classes), uint64(m.Features), uint64(m.Ranks), f(m.TestAccuracy),
		uint64(m.TotalTime), uint64(m.AvgEpochTime), uint64(m.FailedEpoch), uint64(len(m.Weights)), uint64(len(m.Trace))}
	for _, w := range m.Weights {
		out = append(out, f(w))
	}
	for _, p := range m.Trace {
		out = append(out, uint64(p.Epoch), uint64(p.Time), f(p.Objective), f(p.TestAccuracy), f(p.GradNorm))
	}
	return out
}

// modelSnapshot is the snapshot Model.Save writes for m, for the hostile
// cases to alter one field of.
func modelSnapshot(m *Model) *ckpt.Snapshot {
	return &ckpt.Snapshot{
		Fingerprint: modelTag, Solver: m.Solver, Shared: slices.Clone(m.Weights),
		Ranks: [][]float64{{float64(m.Classes), float64(m.Features), float64(m.Ranks), m.TestAccuracy,
			float64(m.TotalTime), float64(m.AvgEpochTime), float64(m.FailedEpoch)}},
		Trace: m.Trace,
	}
}

// TestModelSaveLoadRoundTrip: a model written by Save comes back from
// LoadModel equal in every field and predicting the same classes.
func TestModelSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ds := quickDataset(t)
	trained, err := Train(ds, Options{Epochs: 10, Lambda: 1e-3, Network: "none", EvalTestAccuracy: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(trained.Trace) != 11 {
		t.Fatalf("trained model has %d trace points, want 11", len(trained.Trace))
	}
	partial := *trained
	partial.Trace, partial.FailedEpoch = trained.Trace[:4], 4
	untested := testModel(4, 5, 9)
	untested.TestAccuracy = math.NaN()

	rows := [][]float64{{1, -2, 0.5, 3, -1, 0, 2, -0.5, 1, 0.25}}
	for _, c := range []struct {
		name string
		m    *Model
	}{{"trained", trained}, {"partial", &partial}, {"nan-accuracy", untested}} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, c.name+".nack")
			if err := c.m.Save(path); err != nil {
				t.Fatal(err)
			}
			got, err := LoadModel(path)
			if err != nil {
				t.Fatal(err)
			}
			if got.Solver != c.m.Solver || !slices.Equal(modelBits(got), modelBits(c.m)) {
				t.Fatalf("round trip changed the model:\n got %+v\nwant %+v", got, c.m)
			}
			in := [][]float64{rows[0][:c.m.Features]}
			a, errA := c.m.Predict(in)
			b, errB := got.Predict(in)
			if errA != nil || errB != nil || a[0] != b[0] {
				t.Fatalf("prediction changed across save/load: %v (%v) vs %v (%v)", a, errA, b, errB)
			}
		})
	}

	if err := untested.Save(filepath.Join(dir, "missing-dir", "m.nack")); err == nil {
		t.Fatal("Save created a missing directory")
	}
}

// TestModelSaveLoadServeRoundTrip guards the model file the serving layer
// loads: every file that is not a model written by Save — corrupt, a
// gob-era file, a training checkpoint, misshapen, missing — is refused
// with an error.
func TestModelSaveLoadServeRoundTrip(t *testing.T) {
	dir := t.TempDir()
	untested := testModel(4, 5, 9)
	untested.TestAccuracy = math.NaN()
	if err := untested.Save(filepath.Join(dir, "good.nack")); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(filepath.Join(dir, "good.nack"))
	if err != nil {
		t.Fatal(err)
	}
	reshaped := func(edit func(s *ckpt.Snapshot)) []byte {
		s := modelSnapshot(untested)
		edit(s)
		return ckpt.Encode(s)
	}
	// A training checkpoint shaped like the model in all but its
	// fingerprint and iteration.
	run := modelSnapshot(untested)
	run.Fingerprint, run.Iter = 0x1234, 3
	if err := ckpt.Save(filepath.Join(dir, "run"), run); err != nil {
		t.Fatal(err)
	}
	checkpoint, err := os.ReadFile(filepath.Join(dir, "run", ckpt.FileName(3)))
	if err != nil {
		t.Fatal(err)
	}
	gob, err := hex.DecodeString(gobModel)
	if err != nil {
		t.Fatal(err)
	}
	flipped := slices.Clone(good)
	flipped[32+len(untested.Solver)+4] ^= 1 // the low byte of weight 0
	for _, c := range []struct {
		name    string
		file    []byte // nil: no file at all
		corrupt bool   // refused by ckpt.Decode
	}{
		{"flipped-weight-byte", flipped, true},
		{"gob-model", gob, true},
		{"truncated", good[:len(good)/2], true},
		{"training-checkpoint", checkpoint, false},
		{"two-rank-sections", reshaped(func(s *ckpt.Snapshot) { s.Ranks = append(s.Ranks, s.Ranks[0]) }), false},
		{"short-rank-section", reshaped(func(s *ckpt.Snapshot) { s.Ranks[0] = s.Ranks[0][:6] }), false},
		{"non-integral-count", reshaped(func(s *ckpt.Snapshot) { s.Ranks[0][1] = 5.5 }), false},
		{"negative-count", reshaped(func(s *ckpt.Snapshot) { s.Ranks[0][6] = -1 }), false},
		{"one-class", reshaped(func(s *ckpt.Snapshot) { s.Ranks[0][0], s.Shared = 1, nil }), false},
		{"weights-length", reshaped(func(s *ckpt.Snapshot) { s.Shared = s.Shared[1:] }), false},
		{"missing", nil, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(dir, c.name+".nack")
			if c.file != nil {
				if err := os.WriteFile(path, c.file, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			m, err := LoadModel(path)
			switch {
			case err == nil:
				t.Fatalf("loaded %+v", m)
			case c.file == nil:
				if !errors.Is(err, os.ErrNotExist) {
					t.Fatalf("err = %v, want not-exist", err)
				}
			case !strings.Contains(err.Error(), "not a model file written by Model.Save"):
				t.Fatalf("err = %v does not say it is not a model file", err)
			case errors.Is(err, ckpt.ErrCorrupt) != c.corrupt:
				t.Fatalf("err = %v: wraps ckpt.ErrCorrupt %v, want %v", err, !c.corrupt, c.corrupt)
			case c.name == "gob-model" && !strings.Contains(err.Error(), "bad magic"):
				t.Fatalf("gob-era file: err = %v, want it refused on its magic", err)
			}
		})
	}
}

// TestModelFileLayoutOffsets pins the model file's rank section by hand
// decoding, field by field at its offset (DESIGN.md "Model file"): the
// ckpt header with the model tag, the class-major weights, the seven
// rank fields and the trace.
func TestModelFileLayoutOffsets(t *testing.T) {
	m := testModel(3, 2, 5)
	m.Ranks, m.TestAccuracy, m.TotalTime, m.AvgEpochTime, m.FailedEpoch = 4, 0.75, 3*time.Second, time.Second, 2
	m.Trace = []TracePoint{{Epoch: 1, Time: time.Second, Objective: 0.5, TestAccuracy: 0.75, GradNorm: math.NaN()}}
	path := filepath.Join(t.TempDir(), "m.nack")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(buf[off:]) }
	f64 := func(off int) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])) }
	if string(buf[0:4]) != "NACK" || u32(4) != 1 {
		t.Fatalf("header %q version %d, want NACK 1", buf[0:4], u32(4))
	}
	if string(buf[8:16]) != "nadmodel" || binary.LittleEndian.Uint64(buf[16:]) != 0 {
		t.Fatalf("offset 8: tag %q iter %d, want nadmodel 0", buf[8:16], binary.LittleEndian.Uint64(buf[16:]))
	}
	if u32(24) != 1 || int(u32(28)) != len(m.Solver) || string(buf[32:32+len(m.Solver)]) != m.Solver {
		t.Fatalf("offset 24: %d ranks, solver %q", u32(24), buf[32:32+u32(28)])
	}
	off := 32 + len(m.Solver)
	if u32(off) != 4 {
		t.Fatalf("shared count %d, want (3-1)*2", u32(off))
	}
	off += 4
	for i, w := range m.Weights { // class-major: class c, feature j at c*Features+j
		if f64(off+8*i) != w {
			t.Fatalf("shared[%d] = %v, want %v", i, f64(off+8*i), w)
		}
	}
	off += 8 * len(m.Weights)
	if u32(off) != 7 {
		t.Fatalf("rank section count %d, want 7", u32(off))
	}
	off += 4
	for i, want := range []float64{3, 2, 4, 0.75, 3e9, 1e9, 2} { // classes, features, ranks, accuracy, total ns, avg epoch ns, failed epoch
		if got := f64(off + 8*i); got != want {
			t.Fatalf("rank field %d = %v, want %v", i, got, want)
		}
	}
	off += 7 * 8
	if u32(off) != 1 || u32(off+4) != 1 || f64(off+8) != 1e9 || f64(off+16) != 0.5 {
		t.Fatalf("trace: count %d epoch %d time %v objective %v", u32(off), u32(off+4), f64(off+8), f64(off+16))
	}
	if off += 4 + 36; off+4 != len(buf) {
		t.Fatalf("layout drift: computed end %d, file length %d", off+4, len(buf))
	}
}
