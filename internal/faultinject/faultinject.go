// Package faultinject is the one deterministic fault gate of both
// planes: a Gate decides, call by call, whether a call passes, is
// black-holed, or fails — crash, crash-after-n, hang window, fail-next,
// slow-start and drop-to-peer — and two thin adapters put it on a seam.
// Transport wraps the training cluster's cluster.Transport (installed
// through cluster.Config.WrapTransport) and drives the transport chaos
// suite; Backend wraps the router's router.Backend and drives the router
// chaos suite.
//
// Determinism is the whole design: faults arm from explicit calls and
// trip on exact call counts, never on randomness, so a failing chaos run
// replays identically. Only the hang window is measured on the wall
// clock, and only HangFor arms it.
package faultinject

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"newtonadmm/internal/cluster"
	"newtonadmm/internal/router"
	"newtonadmm/internal/serve"
)

// verdict is the gate's decision for one call.
type verdict int

const (
	pass verdict = iota
	drop         // black hole: the call reports success, nothing is delivered
	crash
	hang
	burst
)

func (v verdict) String() string {
	return [...]string{"pass", "drop", "crash", "hang", "error burst"}[v]
}

// Gate applies armed faults at a call boundary. The zero value passes
// every call. Safe for concurrent use.
type Gate struct {
	mu        sync.Mutex
	crashed   bool
	armed     bool  // a crash-after-n is pending
	left      int64 // calls still allowed before the armed crash trips
	calls     int64
	hangUntil time.Time
	failN     int
	slowN     int
	slowD     time.Duration
	dropTo    map[int]bool
	onCrash   func() // run outside the lock each time the gate goes down
}

// Crash fails every subsequent call until Revive.
func (g *Gate) Crash() {
	g.mu.Lock()
	g.armed = false
	g.down()
}

// down marks the gate crashed, releases the lock and runs onCrash if the
// gate was up.
func (g *Gate) down() {
	was := g.crashed
	g.crashed = true
	g.mu.Unlock()
	if !was && g.onCrash != nil {
		g.onCrash()
	}
}

// CrashAfter arms a deterministic crash: the next n calls pass the gate
// and the one after trips Crash. CrashAfter(0) crashes on the very next
// call.
func (g *Gate) CrashAfter(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.armed, g.left = true, int64(n)
}

// Revive clears every fault, armed or tripped.
func (g *Gate) Revive() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.crashed, g.armed = false, false
	g.hangUntil = time.Time{}
	g.failN, g.slowN = 0, 0
	g.dropTo = nil
}

// HangFor makes calls arriving within the next d wait until the window
// closes and then fail — a wedged peer that holds its socket open
// without answering.
func (g *Gate) HangFor(d time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.hangUntil = time.Now().Add(d)
}

// FailNext makes the next n calls fail without reaching the inner seam —
// a flaky dial or transient error burst.
func (g *Gate) FailNext(n int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.failN = n
}

// SlowStart delays the next n calls by d each before letting them pass —
// a peer warming caches or recovering from a restart.
func (g *Gate) SlowStart(n int, d time.Duration) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.slowN, g.slowD = n, d
}

// DropTo black-holes every subsequent call addressed to peer: it reports
// success but nothing is delivered — the wedged-peer case where the
// receiver's only recourse is its deadline.
func (g *Gate) DropTo(peer int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.dropTo == nil {
		g.dropTo = make(map[int]bool)
	}
	g.dropTo[peer] = true
}

// Calls reports how many calls got past the crash check, dropped, hung
// and failed ones included; a call that trips or meets a crash does not
// count.
func (g *Gate) Calls() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls
}

// enter decides one call addressed to peer (-1 when the seam has no
// peers), in severity order: crash, hang, error burst, drop, slow start.
func (g *Gate) enter(peer int) verdict {
	g.mu.Lock()
	if g.crashed {
		g.mu.Unlock()
		return crash
	}
	if g.armed {
		if g.left == 0 {
			g.armed = false
			g.down()
			return crash
		}
		g.left--
	}
	g.calls++
	if until := g.hangUntil; time.Now().Before(until) {
		g.mu.Unlock()
		time.Sleep(time.Until(until))
		return hang
	}
	v := pass
	var slow time.Duration
	switch {
	case g.failN > 0:
		g.failN--
		v = burst
	case g.dropTo[peer]:
		v = drop
	case g.slowN > 0:
		g.slowN--
		slow = g.slowD
	}
	g.mu.Unlock()
	time.Sleep(slow)
	return v
}

// Transport puts a Gate on the cluster.Transport seam. Send enters the
// gate; a dropped send reports success. A crash is process death: it
// closes the inner transport, so peers blocked on Recv from this rank
// fail promptly with ErrPeerLost, and the rank stays dead through
// Revive — ranks rejoin through a fresh Run, not resurrection. Every
// fault surfaces locally as an ErrPeerLost-wrapped error. Abort and
// Close always reach the inner transport: they are the runtime's
// recovery and cleanup paths, not fault surfaces.
type Transport struct {
	Gate
	inner cluster.Transport
	dead  atomic.Bool
}

// WrapTransport builds a Transport over inner with no faults armed.
func WrapTransport(inner cluster.Transport) *Transport {
	t := &Transport{inner: inner}
	t.onCrash = func() {
		t.dead.Store(true)
		inner.Close()
	}
	return t
}

// Inner returns the wrapped transport.
func (t *Transport) Inner() cluster.Transport { return t.inner }

// Rank implements cluster.Transport.
func (t *Transport) Rank() int { return t.inner.Rank() }

// Size implements cluster.Transport.
func (t *Transport) Size() int { return t.inner.Size() }

func (t *Transport) fault(op string, v verdict) error {
	return fmt.Errorf("faultinject: injected %s (%s on rank %d): %w", v, op, t.inner.Rank(), cluster.ErrPeerLost)
}

// Send implements cluster.Transport through the gate.
func (t *Transport) Send(to int, data []float64) error {
	if t.dead.Load() {
		return t.fault("send", crash)
	}
	switch v := t.enter(to); v {
	case pass:
		return t.inner.Send(to, data)
	case drop:
		return nil
	default:
		return t.fault("send", v)
	}
}

// Recv implements cluster.Transport; only a crash gates it.
func (t *Transport) Recv(from int) ([]float64, error) {
	if t.dead.Load() {
		return nil, t.fault("recv", crash)
	}
	return t.inner.Recv(from)
}

// Abort implements cluster.Transport.
func (t *Transport) Abort() { t.inner.Abort() }

// Close implements cluster.Transport (idempotent after a crash).
func (t *Transport) Close() error { return t.inner.Close() }

// Backend puts a Gate on the router.Backend seam, before the inner
// backend sees the request — a crashed backend never writes a partial
// tile, exactly like a dead process. Every fault surfaces as
// router.ErrReplicaUnreachable, the transport taxonomy that feeds the
// router's health signal, and Revive brings the backend back.
type Backend struct {
	Gate
	inner router.Backend
}

// WrapBackend builds a Backend over inner with no faults armed.
func WrapBackend(inner router.Backend) *Backend { return &Backend{inner: inner} }

func (b *Backend) gate() error {
	if v := b.enter(-1); v != pass {
		return fmt.Errorf("%w: injected %s", router.ErrReplicaUnreachable, v)
	}
	return nil
}

// Meta probes through the gate (a crashed replica fails its health
// probes, so the monitor marks it down).
func (b *Backend) Meta() (serve.ModelMeta, error) {
	if err := b.gate(); err != nil {
		return serve.ModelMeta{}, err
	}
	return b.inner.Meta()
}

// PartialScores scores through the gate; a tripped fault returns before
// the tile is written, like a replica that died mid-scatter.
func (b *Backend) PartialScores(batch *router.Batch, cols int, out []float64) (int64, error) {
	if err := b.gate(); err != nil {
		return 0, err
	}
	return b.inner.PartialScores(batch, cols, out)
}

// Reload hot-swaps through the gate (a crashed replica cannot take the
// new checkpoint — the rollout must survive without it).
func (b *Backend) Reload() (int64, error) {
	if err := b.gate(); err != nil {
		return 0, err
	}
	return b.inner.Reload()
}

// Close always reaches the inner backend: cleanup is not a fault
// surface.
func (b *Backend) Close() { b.inner.Close() }
