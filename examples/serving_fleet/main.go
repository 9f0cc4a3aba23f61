// Serving fleet on the binary data plane: train a preset, stand up two
// class-shard replica servers each exposing both the JSON surface and
// the binary frame listener, front them with a scatter-gather router
// joined over tcp://, and drive the fleet through a request, a drain +
// undrain, and a coordinated hot swap — the in-process twin of the
// multi-process topology in this example's README (which does the same
// with two nadmm-serve processes and curl).
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"

	"newtonadmm"
)

func main() {
	// A small 10-class problem so the explicit class rows split 5/4
	// across two shards.
	ds, err := newtonadmm.PresetDataset("mnist", 0.05)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training %s: %d features, %d classes ...\n", ds.Name(), ds.Features(), ds.Classes())
	model, err := newtonadmm.Train(ds, newtonadmm.Options{Epochs: 3, Network: "none", EvalTestAccuracy: false})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "serving-fleet")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	modelPath := filepath.Join(dir, "model.nack")
	if err := model.Save(modelPath); err != nil {
		log.Fatal(err)
	}

	// Two shard replicas. Each serves its slice of the class rows on
	// both planes: -addr (JSON, for curl and debugging) and -wire-addr
	// (binary frames, for the router's data plane).
	var joins []string
	for i := 0; i < 2; i++ {
		shard, err := newtonadmm.Serve(model, newtonadmm.ServeOptions{
			Addr: "127.0.0.1:0", WireAddr: "127.0.0.1:0",
			ModelPath: modelPath, ShardIndex: i, ShardCount: 2,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer shard.Close()
		fmt.Printf("shard %d/2: JSON on %s, binary frames on %s\n", i, shard.Addr(), shard.WireAddr())
		joins = append(joins, "tcp://"+shard.WireAddr())
	}

	// The router joins the replicas' frame listeners: every scatter leg
	// from here on is binary, while clients still speak JSON to the
	// router itself.
	router, err := newtonadmm.ServeSharded(nil, newtonadmm.RouterOptions{
		Addr: "127.0.0.1:0", Mode: "class", Join: joins,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer router.Close()
	base := "http://" + router.Addr()
	fmt.Printf("router: %s (class-sharded over the binary plane)\n\n", base)

	// One mixed request: a dense row and a sparse row. The merged
	// answer is bitwise identical to single-node scoring: the frames
	// carry raw float64 bits.
	rng := rand.New(rand.NewSource(7))
	dense := make([]float64, ds.Features())
	for j := range dense {
		dense[j] = rng.NormFloat64()
	}
	resp := postJSON(base+"/v1/predict", map[string]any{"instances": []any{
		dense,
		map[string]any{"indices": []int{3, 10, 200}, "values": []float64{1.5, -2.0, 0.75}},
	}})
	fmt.Printf("predict through the binary-backed router: %s\n", resp)

	single, err := model.Predict([][]float64{dense})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("single-node reference for the dense row:  class %d\n\n", single[0])

	// Drain shard replica 0 (admin surface): this fleet has one copy of
	// each shard, so the tier honestly reports itself unavailable
	// rather than serving partial logits — then undrain restores it.
	postJSON(base+"/v1/replicas", map[string]any{"id": 0, "action": "drain"})
	fmt.Printf("drained shard 0 -> healthz: %s\n", getBody(base+"/healthz", http.StatusServiceUnavailable))
	postJSON(base+"/v1/replicas", map[string]any{"id": 0, "action": "undrain"})
	fmt.Printf("undrained shard 0 -> healthz: %s\n\n", getBody(base+"/healthz", http.StatusOK))

	// Hot swap: retrain briefly, rewrite the model file, and reload the
	// whole fleet in one coordinated call. The router holds its swap
	// lock across the rollout, so no scatter merges mixed versions.
	model2, err := newtonadmm.Train(ds, newtonadmm.Options{Epochs: 5, Network: "none", EvalTestAccuracy: false})
	if err != nil {
		log.Fatal(err)
	}
	if err := model2.Save(modelPath); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("coordinated reload: %s\n", postJSON(base+"/v1/reload", nil))
	fmt.Printf("post-swap predict: %s\n", postJSON(base+"/v1/predict", map[string]any{"instances": []any{dense}}))
}

// postJSON posts v (nil for an empty body) and returns the response
// body, failing the example on transport errors.
func postJSON(url string, v any) string {
	var body *bytes.Reader
	if v == nil {
		body = bytes.NewReader(nil)
	} else {
		b, err := json.Marshal(v)
		if err != nil {
			log.Fatal(err)
		}
		body = bytes.NewReader(b)
	}
	resp, err := http.Post(url, "application/json", body)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}

// getBody fetches url and checks the expected status (healthz uses the
// status code to report tier availability).
func getBody(url string, wantStatus int) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		log.Fatalf("%s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return buf.String()
}
