package newtonadmm

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestServeStagingPoolRace pins the lifetime rule of the request
// decoder's pooled staging buffers (DESIGN.md "Request grammar"): the
// rows a tier scores are views into a buffer that goes back to the pool
// when the handler returns, so nothing below the HTTP surface may still
// read them then. Eight clients post distinct 32-row bodies — dense on
// the even clients, mixed dense and sparse on the odd — at both tiers at
// once, and every response must equal Model.Predict on the client's own
// rows. A buffer recycled early is overwritten by another client's
// scan: under -race that is a reported race, and without it a wrong
// prediction.
func TestServeStagingPoolRace(t *testing.T) {
	const clients, rows, rounds = 8, 32, 20
	m := testModel(6, 24, 31)
	// The queues hold every client's rows at once, so no request is a 429.
	single, err := Serve(m, ServeOptions{MaxBatch: 16, Linger: 50 * time.Microsecond, Workers: 1, QueueDepth: clients * rows})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	fleet, err := ServeSharded(m, RouterOptions{
		Replicas: 2, Mode: "class", Workers: 1, MaxBatch: 16, Linger: 50 * time.Microsecond,
		QueueDepth: clients * rows, HealthEvery: -1, SampleEvery: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()

	var wg sync.WaitGroup
	for _, h := range []http.Handler{single.Handler(), fleet.Handler()} {
		ts := httptest.NewServer(h)
		defer ts.Close()
		for c := 0; c < clients; c++ {
			rng := rand.New(rand.NewSource(int64(100 + c)))
			data := make([][]float64, rows)
			for i := range data {
				data[i] = make([]float64, m.Features)
				for j := range data[i] {
					if rng.Float64() < 0.6 {
						data[i][j] = rng.NormFloat64()
					}
				}
			}
			want, err := m.Predict(data)
			if err != nil {
				t.Fatal(err)
			}
			instances := make([]any, rows)
			for i := range data {
				instances[i] = data[i]
			}
			if c%2 == 1 {
				instances = mixedInstances(data)
			}
			body, err := json.Marshal(map[string]any{"instances": instances})
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					path := "/v1/predict"
					if r%2 == 1 {
						path = "/v1/proba"
					}
					resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(body))
					if err != nil {
						t.Error(err)
						return
					}
					var got wireResponse
					err = json.NewDecoder(resp.Body).Decode(&got)
					resp.Body.Close()
					if err != nil || resp.StatusCode != http.StatusOK || len(got.Predictions) != rows {
						t.Errorf("client %d round %d: status %d, %d predictions, %v", c, r, resp.StatusCode, len(got.Predictions), err)
						return
					}
					for i := range want {
						if got.Predictions[i] != want[i] {
							t.Errorf("client %d round %d row %d: served class %d, Model.Predict %d", c, r, i, got.Predictions[i], want[i])
							return
						}
					}
				}
			}(c)
		}
	}
	wg.Wait()

	// Every router-edge request was sampled: its waterfall opens with the
	// decode span, arrival to end of scan.
	rec := httptest.NewRecorder()
	fleet.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/tracez", nil))
	if tracez := rec.Body.String(); !strings.Contains(tracez, "\n  decode ") {
		t.Errorf("router /debug/tracez shows no decode span:\n%s", tracez)
	}
}
