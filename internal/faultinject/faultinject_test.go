package faultinject

import (
	"errors"
	"testing"
	"time"

	"newtonadmm/internal/cluster"
	"newtonadmm/internal/router"
	"newtonadmm/internal/serve"
)

func TestCrashAfterSendExactCount(t *testing.T) {
	ts := cluster.NewInprocGroup(2)
	f := WrapTransport(ts[0])
	f.CrashAfter(2)

	for i := 0; i < 2; i++ {
		if err := f.Send(1, []float64{float64(i)}); err != nil {
			t.Fatalf("send %d should pass the gate: %v", i, err)
		}
	}
	if err := f.Send(1, []float64{2}); !errors.Is(err, cluster.ErrPeerLost) {
		t.Fatalf("third send should trip the crash with ErrPeerLost, got %v", err)
	}
	if got := f.Calls(); got != 2 {
		t.Fatalf("Calls()=%d, want exactly 2 (the tripping call does not count)", got)
	}

	// The trip closed the inner transport: the peer drains the two
	// delivered payloads, then sees the rank as dead.
	for i := 0; i < 2; i++ {
		if _, err := ts[1].Recv(0); err != nil {
			t.Fatalf("queued payload %d lost: %v", i, err)
		}
	}
	if _, err := ts[1].Recv(0); !errors.Is(err, cluster.ErrPeerLost) {
		t.Fatalf("peer should see ErrPeerLost after the crash, got %v", err)
	}
	// And every local call fails too.
	if _, err := f.Recv(1); !errors.Is(err, cluster.ErrPeerLost) {
		t.Fatalf("local recv after crash: got %v, want ErrPeerLost", err)
	}
}

func TestCrashAfterZeroKillsFirstSend(t *testing.T) {
	ts := cluster.NewInprocGroup(2)
	f := WrapTransport(ts[1])
	f.CrashAfter(0)
	if err := f.Send(0, []float64{1}); !errors.Is(err, cluster.ErrPeerLost) {
		t.Fatalf("first send should crash, got %v", err)
	}
	if got := f.Calls(); got != 0 {
		t.Fatalf("Calls()=%d, want 0", got)
	}
}

func TestReviveDisarmsUntrippedFaults(t *testing.T) {
	ts := cluster.NewInprocGroup(2)
	f := WrapTransport(ts[0])
	f.CrashAfter(0)
	f.DropTo(1)
	f.Revive()
	if err := f.Send(1, []float64{7}); err != nil {
		t.Fatalf("revived transport should send cleanly: %v", err)
	}
	if got, err := ts[1].Recv(0); err != nil || got[0] != 7 {
		t.Fatalf("revived send not delivered: %v %v", got, err)
	}
}

func TestReviveDoesNotResurrectTrippedCrash(t *testing.T) {
	ts := cluster.NewInprocGroup(2)
	f := WrapTransport(ts[0])
	f.Crash()
	f.Revive()
	if err := f.Send(1, []float64{1}); !errors.Is(err, cluster.ErrPeerLost) {
		t.Fatalf("a tripped crash must stay dead, got %v", err)
	}
}

func TestDropSendsToBlackHoles(t *testing.T) {
	const timeout = 100 * time.Millisecond
	ts := cluster.NewInprocGroupTimeout(2, timeout)
	f := WrapTransport(ts[0])
	f.DropTo(1)
	if err := f.Send(1, []float64{1}); err != nil {
		t.Fatalf("dropped send must report success (black hole), got %v", err)
	}
	if got := f.Calls(); got != 1 {
		t.Fatalf("Calls()=%d, want 1 (dropped sends count)", got)
	}
	// The receiver's only recourse is its deadline — the wedged-peer path
	// a closed connection can never exercise.
	if _, err := ts[1].Recv(0); !errors.Is(err, cluster.ErrCollectiveTimeout) {
		t.Fatalf("receiver of a dropped send: got %v, want ErrCollectiveTimeout", err)
	}
}

func TestDelegation(t *testing.T) {
	ts := cluster.NewInprocGroup(3)
	f := WrapTransport(ts[2])
	if f.Rank() != 2 || f.Size() != 3 {
		t.Fatalf("Rank/Size not delegated: %d/%d", f.Rank(), f.Size())
	}
	if f.Inner() != ts[2] {
		t.Fatal("Inner() does not return the wrapped transport")
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func TestGateCrashAfterExactCount(t *testing.T) {
	for _, n := range []int{0, 1, 3} {
		var g Gate
		downs := 0
		g.onCrash = func() { downs++ }
		g.CrashAfter(n)
		for i := 0; i < n; i++ {
			if v := g.enter(-1); v != pass {
				t.Fatalf("n=%d: call %d got %v, want pass", n, i, v)
			}
		}
		for i := 0; i < 2; i++ {
			if v := g.enter(-1); v != crash {
				t.Fatalf("n=%d: call %d got %v, want crash", n, n+i, v)
			}
		}
		if g.Calls() != int64(n) || downs != 1 {
			t.Fatalf("n=%d: Calls()=%d onCrash ran %d times, want %d and 1", n, g.Calls(), downs, n)
		}
	}
}

func TestGateReviveClearsEveryFault(t *testing.T) {
	var g Gate
	g.CrashAfter(0)
	g.FailNext(3)
	g.SlowStart(3, time.Second)
	g.HangFor(time.Second)
	g.DropTo(1)
	g.Revive()
	start := time.Now()
	for i := 0; i < 3; i++ {
		if v := g.enter(1); v != pass {
			t.Fatalf("revived gate: call %d got %v, want pass", i, v)
		}
	}
	g.Crash()
	if v := g.enter(1); v != crash {
		t.Fatalf("crashed gate got %v", v)
	}
	g.Revive()
	if v := g.enter(1); v != pass {
		t.Fatalf("revive after a tripped crash: got %v, want pass", v)
	}
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Fatalf("revived gate still slept (%v)", elapsed)
	}
}

func TestGateHangWindow(t *testing.T) {
	const window = 60 * time.Millisecond
	var g Gate
	g.HangFor(window)
	start := time.Now()
	if v := g.enter(-1); v != hang {
		t.Fatalf("call inside the window got %v, want hang", v)
	}
	if elapsed := time.Since(start); elapsed < window-10*time.Millisecond {
		t.Fatalf("hung call returned after %v, want the window (%v) waited out", elapsed, window)
	}
	if v := g.enter(-1); v != pass {
		t.Fatalf("call after the window got %v, want pass", v)
	}
}

func TestGateFailNext(t *testing.T) {
	var g Gate
	g.FailNext(2)
	for i, want := range []verdict{burst, burst, pass} {
		if v := g.enter(-1); v != want {
			t.Fatalf("call %d got %v, want %v", i, v, want)
		}
	}
	if g.Calls() != 3 {
		t.Fatalf("Calls()=%d, want 3 (failed calls count)", g.Calls())
	}
}

func TestGateSlowStart(t *testing.T) {
	const d = 20 * time.Millisecond
	var g Gate
	g.SlowStart(2, d)
	for i := 0; i < 2; i++ {
		start := time.Now()
		if v := g.enter(-1); v != pass {
			t.Fatalf("slow call %d got %v, want pass", i, v)
		}
		if elapsed := time.Since(start); elapsed < d-5*time.Millisecond {
			t.Fatalf("slow call %d took %v, want >= %v", i, elapsed, d)
		}
	}
	if g.slowN != 0 {
		t.Fatalf("%d slow calls left after two", g.slowN)
	}
}

func TestGateDropToPeer(t *testing.T) {
	var g Gate
	g.DropTo(1)
	for _, c := range []struct {
		peer int
		want verdict
	}{{1, drop}, {0, pass}, {-1, pass}, {1, drop}} {
		if v := g.enter(c.peer); v != c.want {
			t.Fatalf("call to %d got %v, want %v", c.peer, v, c.want)
		}
	}
	if g.Calls() != 4 {
		t.Fatalf("Calls()=%d, want 4 (dropped calls count)", g.Calls())
	}
}

func TestTransportFaultMapping(t *testing.T) {
	// A fault short of a crash fails the call typed and leaves the rank
	// alive; the failed payload never arrives.
	ts := cluster.NewInprocGroup(2)
	f := WrapTransport(ts[0])
	f.FailNext(1)
	if err := f.Send(1, []float64{1}); !errors.Is(err, cluster.ErrPeerLost) {
		t.Fatalf("burst send: got %v, want ErrPeerLost", err)
	}
	if err := f.Send(1, []float64{2}); err != nil {
		t.Fatalf("send after the burst: %v", err)
	}
	if got, err := ts[1].Recv(0); err != nil || got[0] != 2 {
		t.Fatalf("peer received %v %v, want the second payload", got, err)
	}
	// A crash closes the inner transport — the peer sees the rank die at
	// once — and Revive does not bring it back.
	f.Crash()
	if _, err := ts[1].Recv(0); !errors.Is(err, cluster.ErrPeerLost) {
		t.Fatalf("peer of a crashed rank: got %v, want ErrPeerLost", err)
	}
	f.Revive()
	if err := f.Send(1, []float64{3}); !errors.Is(err, cluster.ErrPeerLost) {
		t.Fatalf("send after revive: got %v, want ErrPeerLost", err)
	}
	if _, err := f.Recv(1); !errors.Is(err, cluster.ErrPeerLost) {
		t.Fatalf("recv after revive: got %v, want ErrPeerLost", err)
	}
}

// stubBackend answers Meta and counts the calls that reach it; every
// other router.Backend method is unused here.
type stubBackend struct {
	router.Backend
	metas  int
	closed bool
}

func (s *stubBackend) Meta() (serve.ModelMeta, error) {
	s.metas++
	return serve.ModelMeta{Version: 7}, nil
}
func (s *stubBackend) Close() { s.closed = true }

func TestBackendFaultMapping(t *testing.T) {
	inner := &stubBackend{}
	b := WrapBackend(inner)
	b.Crash()
	if _, err := b.Meta(); !errors.Is(err, router.ErrReplicaUnreachable) {
		t.Fatalf("crashed backend: got %v, want ErrReplicaUnreachable", err)
	}
	b.Revive()
	b.FailNext(1)
	if _, err := b.Meta(); !errors.Is(err, router.ErrReplicaUnreachable) {
		t.Fatalf("error burst: got %v, want ErrReplicaUnreachable", err)
	}
	if inner.metas != 0 {
		t.Fatalf("%d faulted calls reached the inner backend", inner.metas)
	}
	if m, err := b.Meta(); err != nil || m.Version != 7 || inner.metas != 1 {
		t.Fatalf("revived backend: %+v %v (inner calls %d)", m, err, inner.metas)
	}
	b.Crash()
	b.Close()
	if !inner.closed {
		t.Fatal("Close did not reach the inner backend of a crashed gate")
	}
}
