package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// newTestServer builds a full stack (predictor -> registry -> batcher ->
// server) over httptest.
func newTestServer(t *testing.T, classes, features int) (*httptest.Server, *Predictor, func()) {
	t.Helper()
	p := makePredictor(t, classes, features, 40)
	reg := NewRegistry()
	reg.Swap(p, ModelMeta{Path: "test.nack", Solver: "newton-admm"})
	bat := NewBatcher(reg, BatcherConfig{MaxBatch: 8, MaxLinger: 100 * time.Microsecond, QueueDepth: 64})
	srv := NewServer(reg, bat, nil)
	ts := httptest.NewServer(srv.Handler())
	return ts, p, func() {
		ts.Close()
		bat.Close()
	}
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func TestServerPredictDenseAndSparse(t *testing.T) {
	const classes, features = 4, 6
	ts, p, done := newTestServer(t, classes, features)
	defer done()

	rng := rand.New(rand.NewSource(41))
	rows := randRows(rng, 5, features, 0.6)
	want := make([]int, len(rows))
	if err := p.PredictDense(rows, want); err != nil {
		t.Fatal(err)
	}
	idx, val := toCSRRows(rows)

	// Mix dense arrays and sparse objects in one request.
	instances := []any{}
	for i, r := range rows {
		if i%2 == 0 {
			instances = append(instances, r)
		} else {
			instances = append(instances, map[string]any{"indices": idx[i], "values": val[i]})
		}
	}
	resp, body := postJSON(t, ts.URL+"/v1/predict", map[string]any{"instances": instances})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr struct {
		Predictions  []int `json:"predictions"`
		ModelVersion int64 `json:"model_version"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.ModelVersion != 1 {
		t.Fatalf("model_version %d", pr.ModelVersion)
	}
	if len(pr.Predictions) != len(rows) {
		t.Fatalf("%d predictions for %d instances", len(pr.Predictions), len(rows))
	}
	for i, c := range pr.Predictions {
		if c != want[i] {
			t.Fatalf("instance %d: class %d, want %d", i, c, want[i])
		}
	}
}

func TestServerProba(t *testing.T) {
	const classes, features = 3, 5
	ts, p, done := newTestServer(t, classes, features)
	defer done()

	rng := rand.New(rand.NewSource(42))
	rows := randRows(rng, 3, features, 1)
	want := make([]int, len(rows))
	if err := p.PredictDense(rows, want); err != nil {
		t.Fatal(err)
	}
	instances := make([]any, len(rows))
	for i, r := range rows {
		instances[i] = r
	}
	resp, body := postJSON(t, ts.URL+"/v1/proba", map[string]any{"instances": instances})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var pr struct {
		Predictions   []int       `json:"predictions"`
		Probabilities [][]float64 `json:"probabilities"`
	}
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Probabilities) != len(rows) {
		t.Fatalf("%d probability rows", len(pr.Probabilities))
	}
	for i, probs := range pr.Probabilities {
		if len(probs) != classes {
			t.Fatalf("row %d has %d probabilities", i, len(probs))
		}
		var sum float64
		for _, v := range probs {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
		if pr.Predictions[i] != want[i] {
			t.Fatalf("row %d: class %d, want %d", i, pr.Predictions[i], want[i])
		}
	}
}

func TestServerBackpressure429(t *testing.T) {
	// Tiny queue + a slow scorer: a burst inside one HTTP request must
	// hit ErrQueueFull and surface as 429.
	f := &slowScorer{fakeScorer: fakeScorer{classes: 3, features: 2}, delay: 2 * time.Millisecond}
	reg := NewRegistry() // only for Meta; swap in a real tiny predictor
	p := makePredictor(t, 3, 2, 43)
	reg.Swap(p, ModelMeta{})
	bat := NewBatcher(fakeSource{s: f}, BatcherConfig{MaxBatch: 1, MaxLinger: -1, QueueDepth: 1})
	defer bat.Close()
	ts := httptest.NewServer(NewServer(reg, bat, nil).Handler())
	defer ts.Close()

	instances := make([]any, 64)
	for i := range instances {
		instances[i] = []float64{1, 0}
	}
	resp, body := postJSON(t, ts.URL+"/v1/predict", map[string]any{"instances": instances})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d (want 429): %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "queue full") {
		t.Fatalf("body %s", body)
	}
}

type slowScorer struct {
	fakeScorer
	delay time.Duration
}

func (s *slowScorer) PredictDense(rows [][]float64, out []int) error {
	time.Sleep(s.delay)
	return s.fakeScorer.PredictDense(rows, out)
}

func TestServerHealthzAndMetricz(t *testing.T) {
	ts, _, done := newTestServer(t, 3, 5)
	defer done()

	// Drive a little traffic first.
	postJSON(t, ts.URL+"/v1/predict", map[string]any{"instances": []any{[]float64{1, 2, 3, 4, 5}}})

	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d", r.StatusCode)
	}
	var health struct {
		Status string    `json:"status"`
		Model  ModelMeta `json:"model"`
	}
	if err := json.Unmarshal(hb, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" || health.Model.Version != 1 || health.Model.Classes != 3 {
		t.Fatalf("health %+v", health)
	}

	r, err = http.Get(ts.URL + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	mb, _ := io.ReadAll(r.Body)
	r.Body.Close()
	for _, key := range []string{
		"nadmm_requests_submitted_total", "nadmm_requests_total", "nadmm_batches_total",
		"nadmm_request_latency_p50_seconds", "nadmm_request_latency_p99_seconds",
		"nadmm_model_version 1", "nadmm_device_launches_total",
	} {
		if !strings.Contains(string(mb), key) {
			t.Fatalf("metricz missing %q:\n%s", key, mb)
		}
	}
}

func TestServerReload(t *testing.T) {
	reg := NewRegistry()
	p := makePredictor(t, 3, 5, 44)
	reg.Swap(p, ModelMeta{})
	bat := NewBatcher(reg, BatcherConfig{})
	defer bat.Close()

	calls := 0
	reload := func() (int64, error) {
		calls++
		if calls > 1 {
			return 0, fmt.Errorf("checkpoint corrupt")
		}
		return 7, nil
	}
	ts := httptest.NewServer(NewServer(reg, bat, reload).Handler())
	defer ts.Close()

	resp, body := postJSON(t, ts.URL+"/v1/reload", map[string]any{})
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"model_version":7`) {
		t.Fatalf("reload: %d %s", resp.StatusCode, body)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/reload", map[string]any{})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed reload: status %d", resp.StatusCode)
	}

	// Without a reloader the endpoint reports 501.
	ts2 := httptest.NewServer(NewServer(reg, bat, nil).Handler())
	defer ts2.Close()
	resp, _ = postJSON(t, ts2.URL+"/v1/reload", map[string]any{})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("nil reloader: status %d", resp.StatusCode)
	}
}
