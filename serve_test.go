package newtonadmm

import (
	"bytes"
	"encoding/json"
	"log"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// testModel builds a model with random (untrained) weights — prediction
// correctness only needs a fixed linear map.
func testModel(classes, features int, seed int64) *Model {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, (classes-1)*features)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	return &Model{Weights: w, Classes: classes, Features: features, Solver: SolverNewtonADMM}
}

func denseToSparse(rows [][]float64) []SparseRow {
	out := make([]SparseRow, len(rows))
	for i, r := range rows {
		for j, v := range r {
			if v != 0 {
				out[i].Indices = append(out[i].Indices, j)
				out[i].Values = append(out[i].Values, v)
			}
		}
	}
	return out
}

func TestModelPredictSparseMatchesDense(t *testing.T) {
	m := testModel(5, 12, 1)
	rng := rand.New(rand.NewSource(2))
	rows := make([][]float64, 9)
	for i := range rows {
		rows[i] = make([]float64, 12)
		for j := range rows[i] {
			if rng.Float64() < 0.5 {
				rows[i][j] = rng.NormFloat64()
			}
		}
	}
	want, err := m.Predict(rows)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.PredictSparse(denseToSparse(rows))
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: sparse %d vs dense %d", i, got[i], want[i])
		}
	}
	// Validation errors surface.
	if _, err := m.PredictSparse([]SparseRow{{Indices: []int{99}, Values: []float64{1}}}); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestModelPredictProba(t *testing.T) {
	m := testModel(4, 7, 3)
	rng := rand.New(rand.NewSource(4))
	rows := make([][]float64, 6)
	for i := range rows {
		rows[i] = make([]float64, 7)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	classes, err := m.Predict(rows)
	if err != nil {
		t.Fatal(err)
	}
	probs, err := m.PredictProba(rows)
	if err != nil {
		t.Fatal(err)
	}
	sparseProbs, err := m.PredictProbaSparse(denseToSparse(rows))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range probs {
		if len(p) != m.Classes {
			t.Fatalf("row %d has %d probabilities", i, len(p))
		}
		var sum float64
		best, bestP := 0, p[0]
		for c, v := range p {
			sum += v
			if v > bestP {
				best, bestP = c, v
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
		if best != classes[i] {
			t.Fatalf("row %d: proba argmax %d, Predict %d", i, best, classes[i])
		}
		for c := range p {
			if p[c] != sparseProbs[i][c] {
				t.Fatalf("row %d class %d: dense %v sparse %v", i, c, p[c], sparseProbs[i][c])
			}
		}
	}
}

func TestPredictorReuseAndClose(t *testing.T) {
	m := testModel(3, 9, 5)
	p, err := m.NewPredictor(1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Classes() != 3 || p.Features() != 9 {
		t.Fatalf("shape %d/%d", p.Classes(), p.Features())
	}
	rng := rand.New(rand.NewSource(6))
	rows := make([][]float64, 4)
	for i := range rows {
		rows[i] = make([]float64, 9)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	want, err := m.Predict(rows)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int, len(rows))
	for trial := 0; trial < 3; trial++ { // reuse across calls
		if err := p.Predict(rows, out); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("trial %d row %d: %d vs %d", trial, i, out[i], want[i])
			}
		}
	}
	probs := make([]float64, len(rows)*3)
	if err := p.Proba(rows, probs); err != nil {
		t.Fatal(err)
	}
}

// TestServeEndToEnd boots the full HTTP server on an ephemeral port,
// predicts, checks health/metrics, hot-swaps via the API and via
// /v1/reload, and shuts down.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.nack")
	m := testModel(3, 6, 7)
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}

	srv, err := Serve(m, ServeOptions{
		Addr: "127.0.0.1:0", MaxBatch: 8, Linger: 100 * time.Microsecond,
		ModelPath: path, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	row := []float64{0.5, -1, 2, 0, 1, -0.5}
	want, err := m.Predict([][]float64{row})
	if err != nil {
		t.Fatal(err)
	}

	body, _ := json.Marshal(map[string]any{"instances": []any{row}})
	resp, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pr struct {
		Predictions  []int `json:"predictions"`
		ModelVersion int64 `json:"model_version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(pr.Predictions) != 1 || pr.Predictions[0] != want[0] {
		t.Fatalf("predict: status %d, got %+v want class %d", resp.StatusCode, pr, want[0])
	}
	if pr.ModelVersion != 1 {
		t.Fatalf("version %d", pr.ModelVersion)
	}

	// healthz is live.
	hr, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", hr.StatusCode)
	}

	// Hot-swap through the programmatic API: version bumps, serving
	// continues.
	if v, err := srv.Swap(testModel(3, 6, 8)); err != nil || v != 2 {
		t.Fatalf("swap: v=%d err=%v", v, err)
	}
	// Hot-swap through /v1/reload (re-reads ModelPath): version 3.
	rr, err := http.Post(base+"/v1/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var rl struct {
		ModelVersion int64 `json:"model_version"`
	}
	if err := json.NewDecoder(rr.Body).Decode(&rl); err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusOK || rl.ModelVersion != 3 {
		t.Fatalf("reload: status %d version %d", rr.StatusCode, rl.ModelVersion)
	}

	// Still serving after two swaps, against the reloaded (original
	// from disk) weights.
	resp2, err := http.Post(base+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var pr2 struct {
		Predictions []int `json:"predictions"`
	}
	json.NewDecoder(resp2.Body).Decode(&pr2)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || pr2.Predictions[0] != want[0] {
		t.Fatalf("post-swap predict: status %d got %+v", resp2.StatusCode, pr2)
	}
}

// TestPresetAccuracyFloors pins the satellite fix: every synthetic
// preset must be learnable well above chance out of the box (the
// planted-signal normalization in internal/datasets makes Separation
// the actual logit scale). Floors sit ~2-3 sigma under the measured
// values at these scales so CPU-count-dependent chunking noise cannot
// flake them; chance is 0.5 / 0.1 / 0.1 / 0.05 respectively.
func TestPresetAccuracyFloors(t *testing.T) {
	cases := []struct {
		preset string
		scale  float64
		epochs int
		floor  float64
	}{
		{"higgs", 0.25, 10, 0.60},
		{"mnist", 0.25, 10, 0.40},
		{"cifar", 0.25, 10, 0.40},
		{"e18", 0.3, 10, 0.09},
	}
	for _, c := range cases {
		t.Run(c.preset, func(t *testing.T) {
			ds, err := PresetDataset(c.preset, c.scale)
			if err != nil {
				t.Fatal(err)
			}
			m, err := Train(ds, Options{
				Epochs: c.epochs, Network: "none", EvalTestAccuracy: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if math.IsNaN(m.TestAccuracy) || m.TestAccuracy < c.floor {
				t.Fatalf("%s test accuracy %.4f below floor %.2f", c.preset, m.TestAccuracy, c.floor)
			}
			t.Logf("%s: test accuracy %.4f (floor %.2f)", c.preset, m.TestAccuracy, c.floor)
		})
	}
}

// lockedBuffer is a log sink safe for the logging goroutines of a
// running server.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestServeWatchHotSwapsAndSurvivesCorruptFile pins the -watch loop: a
// new checkpoint written over ModelPath deploys as the next version, a
// corrupt (truncated) file is refused while the last good version keeps
// serving — logged once, not on every tick of its retries — and a good
// file written afterwards deploys again.
func TestServeWatchHotSwapsAndSurvivesCorruptFile(t *testing.T) {
	logs := new(lockedBuffer)
	prevLog := log.Writer()
	log.SetOutput(logs)
	t.Cleanup(func() { log.SetOutput(prevLog) })
	dir := t.TempDir()
	path := filepath.Join(dir, "model.nack")
	m1 := testModel(3, 6, 11)
	if err := m1.Save(path); err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(m1, ServeOptions{
		Addr: "127.0.0.1:0", Workers: 1, ModelPath: path, Watch: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()
	row := []float64{0.5, -1, 2, 0, 1, -0.5}
	body, _ := json.Marshal(map[string]any{"instances": []any{row}})

	// state reads the served version and the row's probabilities.
	state := func() (int64, []float64) {
		hr, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Model struct {
				Version int64 `json:"version"`
			} `json:"model"`
		}
		err = json.NewDecoder(hr.Body).Decode(&h)
		hr.Body.Close()
		if err != nil || hr.StatusCode != http.StatusOK {
			t.Fatalf("healthz: status %d err %v", hr.StatusCode, err)
		}
		resp, err := http.Post(base+"/v1/proba", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var pr struct {
			Probabilities [][]float64 `json:"probabilities"`
		}
		err = json.NewDecoder(resp.Body).Decode(&pr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || len(pr.Probabilities) != 1 {
			t.Fatalf("proba: status %d err %v body %+v", resp.StatusCode, err, pr)
		}
		return h.Model.Version, pr.Probabilities[0]
	}
	matches := func(got []float64, m *Model) bool {
		want, err := m.PredictProba([][]float64{row})
		if err != nil {
			t.Fatal(err)
		}
		for c := range want[0] {
			if math.Abs(got[c]-want[0][c]) > 1e-12 {
				return false
			}
		}
		return true
	}
	// replace writes m beside path and renames it over, stamped with a
	// distinct mtime, so the watcher sees either the old file or the
	// whole new one.
	replace := func(m *Model, stamp time.Duration) {
		tmp := path + ".next"
		if err := m.Save(tmp); err != nil {
			t.Fatal(err)
		}
		at := time.Now().Add(stamp)
		if err := os.Chtimes(tmp, at, at); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(tmp, path); err != nil {
			t.Fatal(err)
		}
	}
	waitFor := func(version int64, m *Model) {
		deadline := time.Now().Add(10 * time.Second)
		for {
			v, proba := state()
			if v == version && matches(proba, m) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("still at version %d (proba %v) waiting for version %d", v, proba, version)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	if v, proba := state(); v != 1 || !matches(proba, m1) {
		t.Fatalf("start: version %d proba %v", v, proba)
	}
	m2 := testModel(3, 6, 12)
	replace(m2, time.Second)
	waitFor(2, m2)

	// A truncated checkpoint never deploys: version 2 keeps serving
	// through many watch ticks.
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	if v, proba := state(); v != 2 || !matches(proba, m2) {
		t.Fatalf("after truncation: version %d proba %v, want version 2 still serving", v, proba)
	}

	m3 := testModel(3, 6, 13)
	replace(m3, 2*time.Second)
	waitFor(3, m3)
	if n := strings.Count(logs.String(), "reloading "+path+" failed"); n != 1 {
		t.Fatalf("the truncated file logged %d reload failures over its retries, want 1:\n%s", n, logs)
	}
}
