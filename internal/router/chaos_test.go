// Chaos suite: deterministic fault injection (faultinject.Backend
// at the Backend seam) against the R×S replicated-shard grid. The
// invariants under test are the tentpole's acceptance criteria: with
// R >= 2, killing any replica in any position — mid-scatter, mid-drain,
// mid-reload — produces zero non-429 client errors and responses that
// stay bitwise-identical to single-node scoring; with R = 1 a death
// degrades to a per-shard 503 reported by /healthz coverage, never a
// hang.
//
// This file is an external test package: faultinject imports router, so
// an internal test would create an import cycle. Everything here goes
// through the exported API — which doubles as a check that the public
// surface is sufficient to operate the grid.
package router_test

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newtonadmm/internal/faultinject"
	"newtonadmm/internal/router"
	"newtonadmm/internal/serve"
)

func chaosWeights(rng *rand.Rand, classes, features int) []float64 {
	w := make([]float64, (classes-1)*features)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	return w
}

// chaosBatch builds a mixed dense+CSR batch (odd rows sparse) plus the
// per-row dense form for single-node reference scoring.
func chaosBatch(rng *rand.Rand, rows, features int) (*router.Batch, [][]float64) {
	var b router.Batch
	dense := make([][]float64, rows)
	for i := 0; i < rows; i++ {
		row := make([]float64, features)
		for j := range row {
			if rng.Float64() < 0.6 {
				row[j] = rng.NormFloat64()
			}
		}
		dense[i] = row
		if i%2 == 1 {
			var idx []int
			var val []float64
			for j, v := range row {
				if v != 0 {
					idx = append(idx, j)
					val = append(val, v)
				}
			}
			b.AddCSR(idx, val)
		} else {
			b.AddDense(row)
		}
	}
	return &b, dense
}

// chaosLocal builds one in-process replica serving shard i of n (n == 0:
// the full model) in the given zone, with a working reload hook (reload
// re-swaps the same weights, bumping the version — what the
// kill-during-reload test needs).
func chaosLocal(t testing.TB, w []float64, classes, features, i, n int, zone string) *router.LocalBackend {
	t.Helper()
	reg := serve.NewRegistry()
	weights, localClasses := w, classes
	meta := serve.ModelMeta{Zone: zone}
	if n > 0 {
		plan, err := router.PlanShards(classes, n)
		if err != nil {
			t.Fatal(err)
		}
		rng := plan[i]
		weights = w[rng.Low*features : rng.High*features]
		localClasses = rng.Width() + 1
		meta = serve.ModelMeta{
			ShardIndex: i, ShardCount: n,
			ShardLow: rng.Low, ShardHigh: rng.High, TotalClasses: classes,
			Zone: zone,
		}
	}
	reload := func() (int64, error) {
		p, err := serve.NewPredictor(weights, localClasses, features, 1)
		if err != nil {
			return 0, err
		}
		return reg.Swap(p, meta), nil
	}
	if _, err := reload(); err != nil {
		t.Fatal(err)
	}
	return router.NewLocalBackend(reg, reload)
}

// chaosBatcher is the micro-batcher a single-node surface (HTTP or
// frame server) puts in front of lb's registry; closed at cleanup,
// before lb.
func chaosBatcher(t testing.TB, lb *router.LocalBackend) *serve.Batcher {
	bat := serve.NewBatcher(lb.Registry(), serve.BatcherConfig{MaxBatch: 16, MaxLinger: 50 * time.Microsecond, QueueDepth: 256})
	t.Cleanup(bat.Close)
	return bat
}

// chaosBackend reaches a chaosLocal replica over the named transport
// (local or binary), mirroring the internal shardBackend helper.
func chaosBackend(t testing.TB, transport string, w []float64, classes, features, i, n int, zone string) router.Backend {
	t.Helper()
	lb := chaosLocal(t, w, classes, features, i, n, zone)
	switch transport {
	case "local":
		t.Cleanup(lb.Close)
		return lb
	case "binary":
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(lb.Close)
		fs := serve.NewFrameServer(lb.Registry(), chaosBatcher(t, lb), nil)
		go fs.Serve(ln)
		t.Cleanup(fs.Close)
		tb := &router.TCPBackend{Addr: ln.Addr().String(), Timeout: 2 * time.Second}
		t.Cleanup(tb.Close)
		return tb
	default:
		t.Fatalf("unknown transport %q", transport)
		return nil
	}
}

// chaosGrid builds an R×S grid over the named transport with every
// backend wrapped in a faultinject.Backend. faults[s][r] is shard group s's
// member r; members spread across zones zone-0..zone-(R-1). Backend
// order is group-major, so replica ID s*R+r == faults[s][r].
func chaosGrid(t testing.TB, transport string, w []float64, classes, features, gridR, gridS int, opts router.Options) (*router.Router, [][]*faultinject.Backend) {
	t.Helper()
	faults := make([][]*faultinject.Backend, gridS)
	var backends []router.Backend
	for s := 0; s < gridS; s++ {
		for r := 0; r < gridR; r++ {
			fb := faultinject.WrapBackend(chaosBackend(t, transport, w, classes, features, s, gridS, fmt.Sprintf("zone-%d", r)))
			faults[s] = append(faults[s], fb)
			backends = append(backends, fb)
		}
	}
	rt, err := router.New(backends, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt, faults
}

// refProba is the single-node reference: the full model's probabilities
// for the batch's dense form, the bitwise ground truth every merged
// response must equal.
func refProba(t testing.TB, w []float64, classes, features int, dense [][]float64) []float64 {
	t.Helper()
	p, err := serve.NewPredictor(w, classes, features, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	out := make([]float64, len(dense)*classes)
	if err := p.ProbaDense(dense, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestChaosKillEveryPositionBitwise kills each of the R×S grid's four
// members in turn, on every data plane, under request traffic: after
// the kill, every response must still be served (zero non-429 errors)
// and stay bitwise-identical to single-node scoring — the group sibling
// absorbs the death invisibly.
func TestChaosKillEveryPositionBitwise(t *testing.T) {
	const classes, features, gridR, gridS, rows = 5, 8, 2, 2, 6
	rng := rand.New(rand.NewSource(90))
	w := chaosWeights(rng, classes, features)
	b, dense := chaosBatch(rng, rows, features)
	want := refProba(t, w, classes, features, dense)

	for _, transport := range []string{"local", "binary"} {
		for s := 0; s < gridS; s++ {
			for r := 0; r < gridR; r++ {
				t.Run(fmt.Sprintf("%s/kill-g%d-m%d", transport, s, r), func(t *testing.T) {
					rt, faults := chaosGrid(t, transport, w, classes, features, gridR, gridS,
						router.Options{HealthEvery: -1, FailAfter: 2})
					out := make([]float64, rows*classes)
					check := func(k int) {
						t.Helper()
						if err := rt.Proba(b, out, nil); err != nil {
							if errors.Is(err, serve.ErrQueueFull) {
								return // 429 backpressure is the one allowed client error
							}
							t.Fatalf("request %d: client-visible error after kill: %v", k, err)
						}
						for i := range want {
							if out[i] != want[i] {
								t.Fatalf("request %d: proba[%d] = %v, want %v (bitwise)", k, i, out[i], want[i])
							}
						}
					}
					for k := 0; k < 8; k++ {
						check(k)
					}
					faults[s][r].Crash()
					for k := 8; k < 40; k++ {
						check(k)
					}
				})
			}
		}
	}
}

// TestChaosKillUnderConcurrentLoad loses one member of every group
// while concurrent clients hammer the grid; no client may see a
// non-429 error or a non-identical response, race-clean under -race.
func TestChaosKillUnderConcurrentLoad(t *testing.T) {
	const classes, features, gridR, gridS, rows = 5, 8, 2, 2, 4
	rng := rand.New(rand.NewSource(91))
	w := chaosWeights(rng, classes, features)
	b, dense := chaosBatch(rng, rows, features)
	want := refProba(t, w, classes, features, dense)
	rt, faults := chaosGrid(t, "local", w, classes, features, gridR, gridS,
		router.Options{HealthEvery: 2 * time.Millisecond, FailAfter: 2})

	var stop atomic.Bool
	var served atomic.Int64
	errCh := make(chan error, 64)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, rows*classes)
			for !stop.Load() {
				if err := rt.Proba(b, out, nil); err != nil {
					if errors.Is(err, serve.ErrQueueFull) {
						continue
					}
					select {
					case errCh <- err:
					default:
					}
					return
				}
				for i := range want {
					if out[i] != want[i] {
						select {
						case errCh <- fmt.Errorf("proba[%d] = %v, want %v (bitwise)", i, out[i], want[i]):
						default:
						}
						return
					}
				}
				served.Add(1)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	faults[0][0].Crash() // one member of group 0, mid-load
	time.Sleep(20 * time.Millisecond)
	faults[1][1].Crash() // and the opposite member of group 1
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Errorf("client-visible failure under chaos load: %v", err)
	}
	if served.Load() == 0 {
		t.Fatal("no traffic served")
	}
}

// TestChaosTransientFaultsAbsorbed scripts the softer fault shapes —
// error bursts (flaky dials), slow-start, hang-until-deadline — against
// single members; group siblings must absorb all of them bitwise.
func TestChaosTransientFaultsAbsorbed(t *testing.T) {
	const classes, features, gridR, gridS, rows = 5, 8, 2, 2, 4
	rng := rand.New(rand.NewSource(92))
	w := chaosWeights(rng, classes, features)
	b, dense := chaosBatch(rng, rows, features)
	want := refProba(t, w, classes, features, dense)
	rt, faults := chaosGrid(t, "local", w, classes, features, gridR, gridS,
		router.Options{HealthEvery: -1, FailAfter: 100})

	out := make([]float64, rows*classes)
	check := func(stage string) {
		t.Helper()
		if err := rt.Proba(b, out, nil); err != nil {
			t.Fatalf("%s: client-visible error: %v", stage, err)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("%s: proba[%d] = %v, want %v (bitwise)", stage, i, out[i], want[i])
			}
		}
	}
	faults[0][0].FailNext(3) // flaky-dial-style burst
	for k := 0; k < 8; k++ {
		check("error burst")
	}
	faults[1][0].SlowStart(2, 3*time.Millisecond)
	for k := 0; k < 8; k++ {
		check("slow start")
	}
	faults[0][1].HangFor(20 * time.Millisecond) // wedged member; sibling absorbs
	for k := 0; k < 4; k++ {
		check("hang")
	}
}

// TestChaosDrainRacingSiblingDeath is the drain/failover race: a member
// that is draining while its group sibling dies must finish its
// in-flight work, accept no new traffic, and come back cleanly on
// undrain. Run under -race this also pins the memory-safety of the
// drain spin against concurrent scatters.
func TestChaosDrainRacingSiblingDeath(t *testing.T) {
	const classes, features, gridR, gridS, rows = 5, 8, 2, 2, 4
	rng := rand.New(rand.NewSource(93))
	w := chaosWeights(rng, classes, features)
	b, dense := chaosBatch(rng, rows, features)
	want := refProba(t, w, classes, features, dense)
	rt, faults := chaosGrid(t, "local", w, classes, features, gridR, gridS,
		router.Options{HealthEvery: -1, FailAfter: 1})
	pool := rt.Pool()

	// Background load for the drain to race against; after the sibling
	// dies, shard-unavailable errors are expected (group 0 has no
	// available member) — only wrong answers are failures here.
	var stop atomic.Bool
	errCh := make(chan error, 16)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, rows*classes)
			for !stop.Load() {
				if err := rt.Proba(b, out, nil); err != nil {
					continue // availability errors are asserted via coverage below
				}
				for i := range want {
					if out[i] != want[i] {
						select {
						case errCh <- fmt.Errorf("proba[%d] = %v, want %v (bitwise)", i, out[i], want[i]):
						default:
						}
						return
					}
				}
			}
		}()
	}

	time.Sleep(5 * time.Millisecond)
	drainDone := make(chan error, 1)
	go func() { drainDone <- pool.Drain(0, 5*time.Second) }()
	time.Sleep(time.Millisecond)
	faults[0][1].Crash() // sibling dies while replica 0 drains
	if err := <-drainDone; err != nil {
		t.Fatalf("drain did not finish while sibling died: %v", err)
	}
	if got := pool.Replicas()[0].InFlight(); got != 0 {
		t.Fatalf("drained replica still has %d in flight", got)
	}

	// The draining member must not pick up its dead sibling's traffic.
	doneBefore := pool.Replicas()[0].Stats().Done
	out := make([]float64, rows*classes)
	for k := 0; k < 8; k++ {
		if err := rt.Proba(b, out, nil); err == nil {
			t.Fatal("request succeeded with group 0 fully unavailable (drained + dead)")
		} else if !errors.Is(err, router.ErrShardUnavailable) && !errors.Is(err, router.ErrReplicaUnreachable) {
			t.Fatalf("got %v, want 503-class shard-unavailable taxonomy", err)
		}
	}
	if got := pool.Replicas()[0].Stats().Done; got != doneBefore {
		t.Fatalf("draining replica served %d new requests", got-doneBefore)
	}
	status, shards := pool.Coverage()
	if status != "unserviceable" {
		t.Fatalf("coverage %q with a drained+dead group, want unserviceable", status)
	}
	if shards[0].Healthy != 0 {
		t.Fatalf("group 0 reports %d healthy members, want 0", shards[0].Healthy)
	}

	// Undrain restores service end to end, bitwise.
	if err := pool.Undrain(0); err != nil {
		t.Fatal(err)
	}
	if err := rt.Proba(b, out, nil); err != nil {
		t.Fatalf("post-undrain request failed: %v", err)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("post-undrain proba[%d] = %v, want %v (bitwise)", i, out[i], want[i])
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestChaosKillDuringReload kills a member mid-rollout: the coordinated
// reload must keep rolling the survivors forward (best-effort, error
// reported to the operator), and traffic afterwards must be served with
// zero non-429 errors at the new version — no version-skew wedge from a
// half-rolled-out fleet.
func TestChaosKillDuringReload(t *testing.T) {
	const classes, features, gridR, gridS, rows = 5, 8, 2, 2, 4
	rng := rand.New(rand.NewSource(94))
	w := chaosWeights(rng, classes, features)
	b, dense := chaosBatch(rng, rows, features)
	want := refProba(t, w, classes, features, dense)
	rt, faults := chaosGrid(t, "local", w, classes, features, gridR, gridS,
		router.Options{HealthEvery: -1, FailAfter: 1})

	out := make([]float64, rows*classes)
	if err := rt.Proba(b, out, nil); err != nil {
		t.Fatal(err)
	}

	faults[0][0].Crash() // dies just before the rollout reaches it
	v, err := rt.Reload()
	if err == nil {
		t.Fatal("reload with a dead member reported success; the operator must learn the member was missed")
	}
	if v != 2 {
		t.Fatalf("survivors rolled to v%d, want v2", v)
	}

	// The fleet is half-dead but fully rolled out: every request serves
	// bitwise at the new version.
	for k := 0; k < 16; k++ {
		if err := rt.Proba(b, out, nil); err != nil {
			if errors.Is(err, serve.ErrQueueFull) {
				continue
			}
			t.Fatalf("request %d after mid-reload death: %v", k, err)
		}
		for i := range want {
			if out[i] != want[i] {
				t.Fatalf("request %d: proba[%d] = %v, want %v (bitwise)", k, i, out[i], want[i])
			}
		}
	}
	if got := rt.Version(); got != 2 {
		t.Fatalf("fleet version %d, want 2", got)
	}
}

// TestChaosR1DegradesTo503NotHang pins the single-copy degradation
// path: with R = 1, a shard death is a per-shard 503 (reported by the
// /healthz coverage summary with per-shard healthy counts) and requests
// fail fast — never a hang.
func TestChaosR1DegradesTo503NotHang(t *testing.T) {
	const classes, features, rows = 5, 8, 4
	rng := rand.New(rand.NewSource(95))
	w := chaosWeights(rng, classes, features)
	b, _ := chaosBatch(rng, rows, features)
	rt, faults := chaosGrid(t, "local", w, classes, features, 1, 2,
		router.Options{HealthEvery: 2 * time.Millisecond, FailAfter: 1})
	hs := httptest.NewServer(router.NewServer(rt).Handler())
	defer hs.Close()

	getHealthz := func() (int, string) {
		t.Helper()
		resp, err := http.Get(hs.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(body)
	}
	if code, body := getHealthz(); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("healthy grid: code %d body %s", code, body)
	}

	faults[0][0].Crash()
	start := time.Now()
	err := rt.Proba(b, make([]float64, rows*classes), nil)
	if err == nil {
		t.Fatal("request succeeded with a dead single-copy shard")
	}
	if !errors.Is(err, router.ErrReplicaUnreachable) && !errors.Is(err, router.ErrShardUnavailable) {
		t.Fatalf("got %v, want the 503-class unreachable/unavailable taxonomy", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("single-copy shard death took %v to fail — that is a hang, not a 503", elapsed)
	}

	// The health monitor marks the member down; coverage turns
	// unserviceable with the dead shard's healthy count at zero.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if status, _ := rt.Pool().Coverage(); status == "unserviceable" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coverage never turned unserviceable")
		}
		time.Sleep(2 * time.Millisecond)
	}
	code, body := getHealthz()
	if code != http.StatusServiceUnavailable {
		t.Fatalf("healthz code %d with an uncovered shard, want 503", code)
	}
	if !strings.Contains(body, `"status":"unserviceable"`) {
		t.Fatalf("healthz body lacks unserviceable status: %s", body)
	}
	if !strings.Contains(body, `"healthy":0`) {
		t.Fatalf("healthz body lacks the dead shard's healthy count: %s", body)
	}

	// The data plane degrades to 503 over HTTP too.
	resp, err := http.Post(hs.URL+"/v1/predict", "application/json",
		strings.NewReader(`{"instances":[[0,0,0,0,0,0,0,0]]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("predict with a dead shard: HTTP %d, want 503", resp.StatusCode)
	}

	// Revival restores coverage: the monitor re-probes and the shard
	// comes back without intervention.
	faults[0][0].Revive()
	deadline = time.Now().Add(2 * time.Second)
	for {
		if status, _ := rt.Pool().Coverage(); status == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("coverage never recovered after revival")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := rt.Proba(b, make([]float64, rows*classes), nil); err != nil {
		t.Fatalf("post-revival request failed: %v", err)
	}
}

// TestChaosGroupDrainGuard pins the admin drain guard over HTTP:
// draining the last available member of a group is refused with 409
// unless forced.
func TestChaosGroupDrainGuard(t *testing.T) {
	const classes, features = 5, 8
	rng := rand.New(rand.NewSource(96))
	w := chaosWeights(rng, classes, features)
	rt, faults := chaosGrid(t, "local", w, classes, features, 2, 2,
		router.Options{HealthEvery: -1, FailAfter: 1})
	hs := httptest.NewServer(router.NewServer(rt).Handler())
	defer hs.Close()

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(hs.URL+"/v1/replicas", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	// Draining one member of a two-member group is fine.
	if code := post(`{"id":0,"action":"drain"}`); code != http.StatusOK {
		t.Fatalf("drain with a healthy sibling: HTTP %d, want 200", code)
	}
	// Its sibling is now the group's last available member: refused.
	if code := post(`{"id":1,"action":"drain"}`); code != http.StatusConflict {
		t.Fatalf("drain of last available member: HTTP %d, want 409", code)
	}
	// The same holds when the sibling is dead rather than draining.
	if code := post(`{"id":0,"action":"undrain"}`); code != http.StatusOK {
		t.Fatalf("undrain: HTTP %d, want 200", code)
	}
	faults[0][0].Crash()
	// Drive traffic until the data-plane health signal marks the crashed
	// member down (FailAfter 1: its first picked request evicts it).
	deadline := time.Now().Add(2 * time.Second)
	for rt.Pool().Replicas()[0].State() != router.StateDown {
		rt.Proba(chaosOneRow(features), make([]float64, classes), nil)
		if time.Now().After(deadline) {
			t.Fatal("crashed member never marked down by the data path")
		}
	}
	if code := post(`{"id":1,"action":"drain"}`); code != http.StatusConflict {
		t.Fatalf("drain of last live member (sibling dead): HTTP %d, want 409", code)
	}
	// force overrides the guard.
	if code := post(`{"id":1,"action":"drain","force":true}`); code != http.StatusOK {
		t.Fatalf("forced drain: HTTP %d, want 200", code)
	}
}

func chaosOneRow(features int) *router.Batch {
	var b router.Batch
	b.AddDense(make([]float64, features))
	return &b
}
