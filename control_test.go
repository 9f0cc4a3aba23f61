package newtonadmm

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRouterAdmission429 pins the router-plane rejection surface: with
// a starved token bucket, /v1/predict answers 429 with a
// machine-readable reason and a Retry-After header.
func TestRouterAdmission429(t *testing.T) {
	m := testModel(4, 6, 32)
	rs, err := ServeSharded(m, RouterOptions{
		Addr: "127.0.0.1:0", Replicas: 1, Mode: "replica", Workers: 1, HealthEvery: -1,
		Admission: "token-bucket", AdmissionRate: 0.001, AdmissionBurst: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	base := "http://" + rs.Addr()
	row := []float64{0.5, -1, 2, 0, 1, -0.5}

	var rejected int
	for i := 0; i < 6; i++ {
		resp, body := postInstances(t, base+"/v1/predict", []any{row})
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			rejected++
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Fatal("429 without a Retry-After header")
			}
			var er struct {
				Error  string `json:"error"`
				Reason string `json:"reason"`
			}
			if err := json.Unmarshal(body, &er); err != nil {
				t.Fatalf("429 body is not JSON: %v (%s)", err, body)
			}
			if er.Reason != "rate_limited" {
				t.Fatalf("429 reason = %q, want rate_limited", er.Reason)
			}
		default:
			t.Fatalf("request %d: status %d (%s)", i, resp.StatusCode, body)
		}
	}
	if rejected == 0 {
		t.Fatal("a 2-token bucket admitted 6 requests")
	}
	if got := rs.Router().AdmissionStats().Total(); got != uint64(rejected) {
		t.Fatalf("router rejection counter = %d, callers saw %d", got, rejected)
	}

	// /metricz carries the admission family: the rejections by reason,
	// and the installed policy.
	mresp, err := http.Get(base + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf(`nadmm_admission_rejected_total{reason="rate_limited"} %d`, rejected),
		`nadmm_admission_rejected_total{reason="queue_full"} 0`,
		`nadmm_admission_rejected_total{reason="cost_rejected"} 0`,
		"nadmm_admission_active 1",
	} {
		if !strings.Contains(string(text), want+"\n") {
			t.Errorf("/metricz missing %q", want)
		}
	}
}

// TestSwapUnderTraffic races fleet-wide Swap and single-replica
// SwapReplica rollouts against scoring on a 2-member fleet: every
// predict must succeed, since each request scores against one
// registry snapshot and the swap lock keeps a fleet-wide rollout from
// straddling a scatter.
func TestSwapUnderTraffic(t *testing.T) {
	m := testModel(4, 6, 33)
	rs, err := ServeSharded(m, RouterOptions{
		Replicas: 2, Mode: "replica", Workers: 1, HealthEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	stop := make(chan struct{})
	var traffic sync.WaitGroup
	var served atomic.Int64
	for g := 0; g < 2; g++ {
		traffic.Add(1)
		go func() {
			defer traffic.Done()
			row := []float64{0.5, -1, 2, 0, 1, -0.5}
			proba := make([]float64, 4)
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := scoreRow(rs, row, proba); err != nil {
					t.Errorf("predict during swaps: %v", err)
					return
				}
				served.Add(1)
			}
		}()
	}
	// The rollouts start once traffic flows, so they overlap it.
	for served.Load() == 0 {
		runtime.Gosched()
	}
	before := served.Load()

	const rollouts = 40
	var swappers sync.WaitGroup
	swappers.Add(2)
	go func() {
		defer swappers.Done()
		for i := 0; i < rollouts; i++ {
			if _, err := rs.Swap(testModel(4, 6, int64(100+i))); err != nil {
				t.Errorf("fleet swap %d under traffic: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer swappers.Done()
		for i := 0; i < rollouts; i++ {
			if _, err := rs.SwapReplica(i%2, testModel(4, 6, int64(200+i))); err != nil {
				t.Errorf("replica swap %d under traffic: %v", i, err)
				return
			}
		}
	}()
	swappers.Wait()
	close(stop)
	traffic.Wait()
	if served.Load() == before {
		t.Fatal("no request scored while the swaps ran")
	}
}
