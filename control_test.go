package newtonadmm

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestControlSmoke is the CI control-plane smoke: a 1-replica fleet
// with the autoscaler enabled rides a load ramp up to more replicas,
// drains back down when the load stops, and exposes the whole episode
// on /metricz. This is the test the ci control-smoke job runs.
func TestControlSmoke(t *testing.T) {
	m := testModel(4, 6, 31)
	rs, err := ServeSharded(m, RouterOptions{
		Addr: "127.0.0.1:0", Replicas: 1, Mode: "replica", Workers: 1,
		MaxBatch: 1, Linger: -1, QueueDepth: 64, HealthEvery: -1,
		AutoscaleMin: 1, AutoscaleMax: 3,
		AutoscaleTick: 2 * time.Millisecond, AutoscaleCooldown: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	scaler := rs.Autoscaler()
	if scaler == nil {
		t.Fatal("AutoscaleMax > 0 did not start an autoscaler")
	}

	// Ramp: concurrent callers against MaxBatch=1 replicas keep
	// utilization pinned above the 0.75 high-water mark.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var served atomic.Int64
	row := []float64{0.5, -1, 2, 0, 1, -0.5}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := scoreRow(rs, row, nil); err == nil {
					served.Add(1)
				}
			}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for scaler.Ups() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if scaler.Ups() == 0 {
		t.Fatalf("autoscaler never scaled up under saturation (served %d)", served.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no request served during the ramp")
	}

	// Quiet: the loop drains back toward Min.
	deadline = time.Now().Add(10 * time.Second)
	for scaler.Replicas() > 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if scaler.Replicas() != 1 || scaler.Downs() == 0 {
		t.Fatalf("fleet did not drain to Min after the ramp: replicas=%d downs=%d",
			scaler.Replicas(), scaler.Downs())
	}

	// Accepted work survived the whole episode: scale-downs drain, so a
	// request admitted before a retirement still completed.
	resp, _ := postInstances(t, "http://"+rs.Addr()+"/v1/predict", []any{row})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict after scale-down: status %d", resp.StatusCode)
	}

	// The episode is on /metricz: autoscale counters moved and the
	// admission families exist (at zero — no policy installed).
	mresp, err := http.Get("http://" + rs.Addr() + "/metricz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	text := string(body)
	for _, want := range []string{
		"nadmm_autoscale_replicas 1",
		"nadmm_autoscale_ups_total",
		"nadmm_autoscale_downs_total",
		`nadmm_admission_rejected_total{reason="rate_limited"} 0`,
		`nadmm_admission_rejected_total{reason="queue_full"} 0`,
		"nadmm_admission_active 0",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metricz missing %q", want)
		}
	}
}

// TestRouterAdmission429 pins the router-plane rejection surface: with
// a starved token bucket, /v1/predict answers 429 with a
// machine-readable reason and a Retry-After header.
func TestRouterAdmission429(t *testing.T) {
	m := testModel(4, 6, 32)
	rs, err := ServeSharded(m, RouterOptions{
		Addr: "127.0.0.1:0", Replicas: 1, Mode: "replica", Workers: 1,
		MaxBatch: 8, Linger: -1, HealthEvery: -1,
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
}

// TestAutoscaleDownRacesSwap drives the lmu seam directly: fleet-wide
// hot swaps racing autoscaler scale-ups/scale-downs. The membership
// mutex must keep Swap from iterating into a retired (closed) registry
// and keep scale-up spawning replicas of the latest deployed model.
func TestAutoscaleDownRacesSwap(t *testing.T) {
	m := testModel(4, 6, 33)
	rs, err := ServeSharded(m, RouterOptions{
		Replicas: 2, Mode: "replica", Workers: 1,
		MaxBatch: 8, Linger: -1, HealthEvery: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// Swapper: rolls the fleet to fresh models as fast as it can.
	wg.Add(1)
	go func() {
		defer wg.Done()
		seed := int64(100)
		for {
			select {
			case <-stop:
				return
			default:
			}
			seed++
			if _, err := rs.Swap(testModel(4, 6, seed)); err != nil {
				t.Errorf("swap during scaling: %v", err)
				return
			}
		}
	}()
	// Traffic: every outcome must be a success (no admission policy, big
	// queue, and drains wait out accepted work).
	wg.Add(1)
	go func() {
		defer wg.Done()
		row := []float64{0.5, -1, 2, 0, 1, -0.5}
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := scoreRow(rs, row, nil); err != nil {
				t.Errorf("predict during swap/scale churn: %v", err)
				return
			}
		}
	}()

	// Scaler actuator, driven synchronously for determinism: grow to 4,
	// shrink back to 2, repeatedly — exactly what the control loop does,
	// minus the hysteresis timing.
	act := fleetActuator{rs: rs}
	for cycle := 0; cycle < 10; cycle++ {
		for act.Replicas() < 4 {
			if err := act.ScaleUp(); err != nil {
				t.Fatalf("cycle %d scale-up: %v", cycle, err)
			}
		}
		for act.Replicas() > 2 {
			if err := act.ScaleDown(); err != nil {
				t.Fatalf("cycle %d scale-down: %v", cycle, err)
			}
		}
	}
	close(stop)
	wg.Wait()

	if n := act.Replicas(); n != 2 {
		t.Fatalf("fleet ended with %d replicas, want 2", n)
	}
	// The last deployed model is what a future scale-up would spawn.
	if _, err := rs.Swap(testModel(4, 6, 999)); err != nil {
		t.Fatalf("final swap: %v", err)
	}
}
