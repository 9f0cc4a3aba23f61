package router

import (
	"errors"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newtonadmm/internal/serve"
	"newtonadmm/internal/wire"
)

// frameReplica wraps an in-process serving stack with a live binary
// frame listener, the replica side of the TCP data plane.
type frameReplica struct {
	lb  *LocalBackend
	bat *serve.Batcher // the frame server's OpPredict/OpProba path and trace recorder
	fs  *serve.FrameServer
	ln  net.Listener
}

func (fr *frameReplica) addr() string { return fr.ln.Addr().String() }

func (fr *frameReplica) close() {
	fr.fs.Close()
	fr.bat.Close()
	fr.lb.Close()
}

// serveFrames starts a frame server for lb on ln.
func serveFrames(lb *LocalBackend, ln net.Listener) *frameReplica {
	bat := serve.NewBatcher(lb.Registry(), serve.BatcherConfig{MaxBatch: 16, MaxLinger: 50 * time.Microsecond, QueueDepth: 256})
	fs := serve.NewFrameServer(lb.Registry(), bat, nil)
	go fs.Serve(ln)
	return &frameReplica{lb: lb, bat: bat, fs: fs, ln: ln}
}

// startFrameReplica serves shard i of n (n == 0: the full model) over a
// loopback frame listener.
func startFrameReplica(t testing.TB, w []float64, classes, features, i, n int) *frameReplica {
	t.Helper()
	lb := localReplica(t, w, classes, features, i, n)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	return serveFrames(lb, ln)
}

// shardBackend builds one class-shard backend reached over the named
// transport, all fronting the identical in-process serving stack:
//
//	local — the in-process LocalBackend (no wire)
//	binary — TCPBackend over a live frame listener (the binary plane)
func shardBackend(t testing.TB, transport string, w []float64, classes, features, i, n int) Backend {
	t.Helper()
	switch transport {
	case "local":
		lb := localReplica(t, w, classes, features, i, n)
		t.Cleanup(lb.Close)
		return lb
	case "binary":
		fr := startFrameReplica(t, w, classes, features, i, n)
		t.Cleanup(fr.close)
		tb := &TCPBackend{Addr: fr.addr()}
		t.Cleanup(tb.Close)
		return tb
	default:
		t.Fatalf("unknown transport %q", transport)
		return nil
	}
}

// transports enumerates the data planes the identity tests cover.
var transports = []string{"local", "binary"}

// TestTCPBackendConcurrentPipelining hammers one single-connection
// TCPBackend from many goroutines: every request multiplexes over the
// same socket via correlation IDs and must come back with its own
// answer.
func TestTCPBackendConcurrentPipelining(t *testing.T) {
	const classes, features = 6, 12
	rng := rand.New(rand.NewSource(70))
	w := randWeights(rng, classes, features)
	fr := startFrameReplica(t, w, classes, features, 0, 0)
	defer fr.close()
	tb := &TCPBackend{Addr: fr.addr(), Conns: 1}
	defer tb.Close()

	single, err := serve.NewPredictorOn(testDev, w, classes, features)
	if err != nil {
		t.Fatal(err)
	}
	// A set of distinguishable rows with known answers.
	const nRows = 8
	rows := make([][]float64, nRows)
	for i := range rows {
		rows[i] = make([]float64, features)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	const m = classes - 1
	var all Batch
	for _, row := range rows {
		all.AddDense(row)
	}
	want := make([]float64, nRows*m)
	if err := single.ScoresBatch(&all.Batch, m, want); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]float64, m)
			for k := 0; k < 32; k++ {
				i := (g + k) % nRows
				var b Batch
				b.AddDense(rows[i])
				if _, err := tb.PartialScores(&b, m, out); err != nil {
					errs <- err
					return
				}
				if !slices.Equal(out, want[i*m:(i+1)*m]) {
					errs <- errors.New("wrong answer for multiplexed request")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestTCPReplicaDeathFailover is the mid-stream death satellite: a
// replica process dying under load (its listener and live connections
// torn down mid-request) must fail over without a single client-visible
// error and without wedging the connection pool; the dead replica goes
// Down and the survivor keeps serving.
func TestTCPReplicaDeathFailover(t *testing.T) {
	const classes, features = 4, 10
	rng := rand.New(rand.NewSource(71))
	w := randWeights(rng, classes, features)
	fr0 := startFrameReplica(t, w, classes, features, 0, 0)
	fr1 := startFrameReplica(t, w, classes, features, 0, 0)
	defer fr0.close()
	defer fr1.close()
	tb0 := &TCPBackend{Addr: fr0.addr(), Timeout: 2 * time.Second}
	tb1 := &TCPBackend{Addr: fr1.addr(), Timeout: 2 * time.Second}
	rt, err := New([]Backend{tb0, tb1}, Options{HealthEvery: -1, FailAfter: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var stop atomic.Bool
	var served, failed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			row := make([]float64, features)
			out := make([]int, 1)
			for !stop.Load() {
				for j := range row {
					row[j] = rng.NormFloat64()
				}
				var b Batch
				b.AddDense(row)
				if err := rt.Predict(&b, out); err != nil {
					failed.Add(1)
				} else {
					served.Add(1)
				}
			}
		}(int64(300 + g))
	}

	time.Sleep(20 * time.Millisecond)
	fr0.close() // listener and every live connection die mid-stream
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	if failed.Load() != 0 {
		t.Fatalf("%d requests failed across the replica death (%d served): failover must absorb mid-stream connection loss", failed.Load(), served.Load())
	}
	if served.Load() == 0 {
		t.Fatal("no traffic served")
	}
	if got := rt.Pool().Replicas()[0].State(); got != StateDown {
		t.Fatalf("dead replica state %v, want down", got)
	}
	// The pool is not wedged: fresh requests still answer promptly on
	// the survivor.
	for k := 0; k < 8; k++ {
		var b Batch
		b.AddDense(make([]float64, features))
		if err := rt.Predict(&b, make([]int, 1)); err != nil {
			t.Fatalf("post-death request %d: %v", k, err)
		}
	}
}

// TestTCPShardDeathIs503 pins single-copy shard semantics on the binary
// plane: a dead shard makes class-mode requests fail with the
// router's transient taxonomy (shard unavailable / replica unreachable
// / queue semantics — all 503-class), never hang.
func TestTCPShardDeathIs503(t *testing.T) {
	const classes, features = 5, 8
	rng := rand.New(rand.NewSource(72))
	w := randWeights(rng, classes, features)
	fr0 := startFrameReplica(t, w, classes, features, 0, 2)
	fr1 := startFrameReplica(t, w, classes, features, 1, 2)
	defer fr1.close()
	tb0 := &TCPBackend{Addr: fr0.addr(), Timeout: 2 * time.Second}
	tb1 := &TCPBackend{Addr: fr1.addr(), Timeout: 2 * time.Second}
	rt, err := New([]Backend{tb0, tb1}, Options{HealthEvery: -1, SkewRetries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var b Batch
	b.AddDense(make([]float64, features))
	if err := rt.Predict(&b, make([]int, 1)); err != nil {
		t.Fatal(err)
	}
	fr0.close()
	err = rt.Predict(&b, make([]int, 1))
	if err == nil {
		t.Fatal("class-mode request succeeded with a dead shard")
	}
	if !errors.Is(err, ErrReplicaUnreachable) && !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("dead shard error %v, want unreachable/unavailable taxonomy", err)
	}
}

// TestTCPBackendTimeout checks a replica that accepts but never answers
// is cut off by the per-call deadline with the unreachable taxonomy.
func TestTCPBackendTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			defer c.Close() // hold the conn open, never answer
		}
	}()
	tb := &TCPBackend{Addr: ln.Addr().String(), Timeout: 50 * time.Millisecond}
	defer tb.Close()
	if _, err := tb.Meta(); !errors.Is(err, ErrReplicaUnreachable) {
		t.Fatalf("got %v, want ErrReplicaUnreachable", err)
	}
}

// TestTCPBackendRejectsUnframeableBatch checks batches the wire cannot
// carry (too many rows, oversized payload) fail client-side as
// deterministic request errors — NOT ErrReplicaUnreachable, which
// would feed the health signal and mark healthy replicas down — and
// without ever dialing (the backend address is a black hole).
func TestTCPBackendRejectsUnframeableBatch(t *testing.T) {
	tb := &TCPBackend{Addr: "127.0.0.1:1", Timeout: time.Second}
	defer tb.Close()

	var flood Batch
	for i := 0; i < wire.MaxRows+1; i++ {
		flood.AddCSR(nil, nil)
	}
	_, err := tb.PartialScores(&flood, 1, make([]float64, flood.Rows()))
	if err == nil || errors.Is(err, ErrReplicaUnreachable) {
		t.Fatalf("row flood: got %v, want a request-shaped error", err)
	}

	var fat Batch
	fat.AddDense(make([]float64, wire.MaxPayload/8+2))
	_, err = tb.PartialScores(&fat, 1, make([]float64, 1))
	if err == nil || errors.Is(err, ErrReplicaUnreachable) {
		t.Fatalf("oversized payload: got %v, want a request-shaped error", err)
	}
}

// TestBackendForURL covers the join-address matrix: tcp:// and bare
// host:port are the frame listener; http(s):// is refused with a typed
// error that tells the operator what to start instead.
func TestBackendForURL(t *testing.T) {
	for _, base := range []string{"tcp://127.0.0.1:9081", "127.0.0.1:9081"} {
		b, err := BackendForURL(base)
		if err != nil {
			t.Errorf("%q: %v", base, err)
			continue
		}
		if tb, ok := b.(*TCPBackend); !ok || tb.Addr != "127.0.0.1:9081" {
			t.Errorf("%q: got %#v, want a TCPBackend on 127.0.0.1:9081", base, b)
		}
	}
	for _, base := range []string{"http://127.0.0.1:8081", "https://replica.example:8081"} {
		_, err := BackendForURL(base)
		if !errors.Is(err, ErrHTTPJoin) {
			t.Errorf("%q: got %v, want ErrHTTPJoin", base, err)
			continue
		}
		for _, hint := range []string{"-wire-addr", "tcp://"} {
			if !strings.Contains(err.Error(), hint) {
				t.Errorf("%q: error %q does not name %s", base, err, hint)
			}
		}
	}
	if _, err := BackendForURL("ftp://127.0.0.1:21"); err == nil || errors.Is(err, ErrHTTPJoin) {
		t.Errorf("ftp://: got %v, want an unknown-scheme error", err)
	}
}

// TestTCPRedialBackoff pins the flapping-replica protection: after a
// failed dial the backend opens a jittered exponential backoff window
// during which calls fail fast (ErrReplicaUnreachable) without dialing;
// when the window expires it dials again, and a successful dial resets
// the backoff entirely.
func TestTCPRedialBackoff(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()

	tb := &TCPBackend{Addr: addr, Timeout: time.Second, RedialBase: 60 * time.Millisecond, RedialMax: 60 * time.Millisecond}
	defer tb.Close()
	if _, err := tb.Meta(); !errors.Is(err, ErrReplicaUnreachable) {
		t.Fatalf("dial to closed port: got %v, want ErrReplicaUnreachable", err)
	}
	// Calls inside the window must not dial again: the consecutive-
	// failure count stays at 1.
	for i := 0; i < 3; i++ {
		if _, err := tb.Meta(); !errors.Is(err, ErrReplicaUnreachable) {
			t.Fatalf("backed-off call %d: got %v, want ErrReplicaUnreachable", i, err)
		}
	}
	tb.mu.Lock()
	fails, next := tb.dialFails, tb.nextDial
	tb.mu.Unlock()
	if fails != 1 {
		t.Fatalf("dialFails = %d after calls inside the backoff window, want 1 (no redial storm)", fails)
	}
	if next.IsZero() {
		t.Fatal("no backoff window opened after a failed dial")
	}

	// Past the window (base 60ms, +25% jitter max) the backend dials
	// again; with a live replica on the address the dial succeeds and
	// resets the backoff.
	fr := func() *frameReplica {
		deadline := time.Now().Add(2 * time.Second)
		for {
			lb := localReplica(t, randWeights(rand.New(rand.NewSource(73)), 3, 4), 3, 4, 0, 0)
			ln, err := net.Listen("tcp", addr)
			if err == nil {
				return serveFrames(lb, ln)
			}
			lb.Close()
			if time.Now().After(deadline) {
				t.Skipf("cannot rebind %s: %v", addr, err)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}()
	defer fr.close()

	time.Sleep(100 * time.Millisecond) // let the window expire
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := tb.Meta(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("backend never recovered after the replica came back")
		}
		time.Sleep(30 * time.Millisecond)
	}
	tb.mu.Lock()
	fails, next = tb.dialFails, tb.nextDial
	tb.mu.Unlock()
	if fails != 0 || !next.IsZero() {
		t.Fatalf("successful dial did not reset backoff: fails=%d window=%v", fails, next)
	}
}
