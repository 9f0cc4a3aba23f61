package control

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// fakeSource returns a settable snapshot.
type fakeSource struct{ s atomic.Pointer[Snapshot] }

func (f *fakeSource) set(s Snapshot)     { f.s.Store(&s) }
func (f *fakeSource) Snapshot() Snapshot { return *f.s.Load() }

// fakeActuator counts actions and can be told to refuse them.
type fakeActuator struct {
	n          int
	refuseDown bool
	ups, downs int
}

func (f *fakeActuator) Replicas() int { return f.n }
func (f *fakeActuator) ScaleUp() error {
	f.n++
	f.ups++
	return nil
}
func (f *fakeActuator) ScaleDown() error {
	if f.refuseDown {
		return errors.New("drain refused")
	}
	f.n--
	f.downs++
	return nil
}

func newTestScaler(act *fakeActuator, src *fakeSource, cfg AutoscalerConfig) *Autoscaler {
	// Never Start(): the tests drive evaluate with a synthetic clock.
	return NewAutoscaler(src, act, cfg)
}

func TestAutoscalerDefaults(t *testing.T) {
	cfg := AutoscalerConfig{Max: 4}.withDefaults()
	if cfg.Min != 1 || cfg.HighUtilization != 0.75 || cfg.LowUtilization != 0.25 ||
		cfg.Tick != time.Second || cfg.UpAfter != 2 || cfg.DownAfter != 5 ||
		cfg.UpCooldown != 3*time.Second || cfg.DownCooldown != 10*time.Second {
		t.Fatalf("defaults drifted: %+v (DESIGN.md pins 1/0.75/0.25/1s/2/5/3s/10s)", cfg)
	}
	if c := (AutoscalerConfig{Min: 5, Max: 2}).withDefaults(); c.Max != 5 {
		t.Fatalf("Max below Min not clamped: %+v", c)
	}
}

// TestAutoscalerScaleUpHysteresis: one hot tick is noise, UpAfter
// consecutive hot ticks scale up, and the up-cooldown gates the next
// grow.
func TestAutoscalerScaleUpHysteresis(t *testing.T) {
	act := &fakeActuator{n: 1}
	src := &fakeSource{}
	a := newTestScaler(act, src, AutoscalerConfig{Min: 1, Max: 3, UpAfter: 2, UpCooldown: 3 * time.Second})
	now := time.Unix(1000, 0)

	src.set(Snapshot{InFlight: 90, Capacity: 100}) // util 0.9 > 0.75
	a.evaluate(now)
	if act.ups != 0 {
		t.Fatal("scaled up after a single hot tick")
	}
	// An intervening calm tick resets the streak.
	src.set(Snapshot{InFlight: 50, Capacity: 100})
	a.evaluate(now.Add(time.Second))
	src.set(Snapshot{InFlight: 90, Capacity: 100})
	a.evaluate(now.Add(2 * time.Second))
	if act.ups != 0 {
		t.Fatal("hot streak survived a calm tick")
	}
	a.evaluate(now.Add(3 * time.Second))
	if act.ups != 1 || act.n != 2 {
		t.Fatalf("2 consecutive hot ticks: ups=%d n=%d, want 1/2", act.ups, act.n)
	}
	// Still hot, but inside the 3s up-cooldown: no action.
	a.evaluate(now.Add(4 * time.Second))
	a.evaluate(now.Add(5 * time.Second))
	if act.ups != 1 {
		t.Fatalf("scaled up inside the cooldown: ups=%d", act.ups)
	}
	a.evaluate(now.Add(6 * time.Second))
	a.evaluate(now.Add(7 * time.Second))
	if act.ups != 2 || act.n != 3 {
		t.Fatalf("after cooldown: ups=%d n=%d, want 2/3", act.ups, act.n)
	}
	// At Max, sustained heat never grows past the bound.
	for i := 8; i < 20; i++ {
		a.evaluate(now.Add(time.Duration(i) * time.Second))
	}
	if act.n != 3 {
		t.Fatalf("pool grew past Max: n=%d", act.n)
	}
	if a.Ups() != 2 {
		t.Fatalf("Ups() = %d, want 2", a.Ups())
	}
}

// TestAutoscalerLatencySignal: p99 above target counts as overloaded
// even at low utilization.
func TestAutoscalerLatencySignal(t *testing.T) {
	act := &fakeActuator{n: 1}
	src := &fakeSource{}
	a := newTestScaler(act, src, AutoscalerConfig{Min: 1, Max: 2, TargetP99: 10 * time.Millisecond, UpAfter: 2})
	now := time.Unix(1000, 0)
	src.set(Snapshot{P99: 50 * time.Millisecond, InFlight: 1, Capacity: 100})
	a.evaluate(now)
	a.evaluate(now.Add(4 * time.Second))
	if act.ups != 1 {
		t.Fatalf("latency overload did not scale up: ups=%d", act.ups)
	}
}

// TestAutoscalerScaleDown: DownAfter consecutive idle ticks drain one
// replica, never below Min, and a refused drain counts as a failure
// while leaving the pool unchanged.
func TestAutoscalerScaleDown(t *testing.T) {
	act := &fakeActuator{n: 3}
	src := &fakeSource{}
	a := newTestScaler(act, src, AutoscalerConfig{
		Min: 1, Max: 3, DownAfter: 3, DownCooldown: 5 * time.Second, UpCooldown: time.Second,
	})
	now := time.Unix(2000, 0)
	src.set(Snapshot{InFlight: 1, Capacity: 100}) // util 0.01 < 0.25
	for i := 0; i < 2; i++ {
		a.evaluate(now.Add(time.Duration(i) * time.Second))
	}
	if act.downs != 0 {
		t.Fatal("scaled down before DownAfter idle ticks")
	}
	a.evaluate(now.Add(2 * time.Second))
	if act.downs != 1 || act.n != 2 {
		t.Fatalf("3 idle ticks: downs=%d n=%d, want 1/2", act.downs, act.n)
	}
	// Refused drains (coverage guard) are failures, not crashes.
	act.refuseDown = true
	for i := 3; i < 20; i++ {
		a.evaluate(now.Add(time.Duration(i) * time.Second))
	}
	if act.n != 2 {
		t.Fatalf("refused drain still shrank the pool: n=%d", act.n)
	}
	if a.Failures() == 0 {
		t.Fatal("refused drain not counted as a failure")
	}
	// Allowed again: drains to Min and stops.
	act.refuseDown = false
	for i := 20; i < 60; i++ {
		a.evaluate(now.Add(time.Duration(i) * time.Second))
	}
	if act.n != 1 {
		t.Fatalf("pool = %d, want Min=1", act.n)
	}
	if a.Replicas() != 1 || a.Downs() != uint64(act.downs) {
		t.Fatalf("gauges drifted: Replicas=%d Downs=%d downs=%d", a.Replicas(), a.Downs(), act.downs)
	}
}

// TestAutoscalerDownWaitsOutUpCooldown: a scale-up immediately followed
// by quiet must not oscillate — the down waits DownCooldown after the
// up.
func TestAutoscalerDownWaitsOutUpCooldown(t *testing.T) {
	act := &fakeActuator{n: 1}
	src := &fakeSource{}
	a := newTestScaler(act, src, AutoscalerConfig{
		Min: 1, Max: 2, UpAfter: 1, DownAfter: 1, UpCooldown: time.Second, DownCooldown: 10 * time.Second,
	})
	now := time.Unix(3000, 0)
	src.set(Snapshot{InFlight: 90, Capacity: 100})
	a.evaluate(now)
	if act.ups != 1 {
		t.Fatal("no scale-up")
	}
	src.set(Snapshot{InFlight: 0, Capacity: 100})
	for i := 1; i < 10; i++ {
		a.evaluate(now.Add(time.Duration(i) * time.Second))
	}
	if act.downs != 0 {
		t.Fatalf("scaled down %d times within DownCooldown of the up", act.downs)
	}
	a.evaluate(now.Add(11 * time.Second))
	if act.downs != 1 {
		t.Fatalf("down after the cooldown: downs=%d, want 1", act.downs)
	}
}

// TestAutoscalerStartStop exercises the real loop end to end with a
// tiny tick (smoke: no deadlock, counters move).
func TestAutoscalerStartStop(t *testing.T) {
	act := &fakeActuator{n: 1}
	src := &fakeSource{}
	src.set(Snapshot{InFlight: 90, Capacity: 100})
	a := NewAutoscaler(src, act, AutoscalerConfig{
		Min: 1, Max: 2, Tick: time.Millisecond, UpAfter: 1, UpCooldown: time.Millisecond,
	})
	a.Start()
	deadline := time.Now().Add(2 * time.Second)
	for a.Ups() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	a.Stop()
	a.Stop() // idempotent
	if a.Ups() == 0 {
		t.Fatal("loop never scaled up")
	}
}
