package control

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"newtonadmm/internal/obs"
)

// Snapshot is one observation of the serving tier, the autoscaler's
// input signal.
type Snapshot struct {
	// P99 is the recent (windowed, not cumulative) p99 request latency;
	// zero when nothing was observed in the window.
	P99 time.Duration
	// InFlight is the number of requests currently inside the tier.
	InFlight int64
	// Capacity is the tier's nominal concurrency (replicas x max batch);
	// InFlight/Capacity is the utilization the loop tracks.
	Capacity int64
	// Replicas is the current pool size.
	Replicas int
}

// SnapshotProvider feeds the autoscaler; RegistrySource is the
// production implementation over the obs metrics registry.
type SnapshotProvider interface {
	Snapshot() Snapshot
}

// Actuator applies scaling decisions. ScaleDown must be drain-safe:
// refuse (return an error) rather than drop accepted work or violate
// shard coverage — the serving tier's implementation routes through
// the pool's CanDrain/Drain primitives.
type Actuator interface {
	Replicas() int
	ScaleUp() error
	ScaleDown() error
}

// AutoscalerConfig tunes the control loop. The hysteresis constants
// (UpAfter/DownAfter consecutive ticks, Up/DownCooldown) are the
// normative defaults documented in DESIGN.md "Control plane".
type AutoscalerConfig struct {
	// Min and Max bound the replica count; Min <= 0 selects 1.
	Min, Max int
	// TargetP99 is the latency target: the tier is overloaded when the
	// windowed p99 exceeds it and latency-idle below half of it. Zero
	// disables the latency signal (utilization-only tracking).
	TargetP99 time.Duration
	// HighUtilization/LowUtilization bracket the in-flight utilization
	// signal; <= 0 select 0.75 and 0.25.
	HighUtilization, LowUtilization float64
	// Tick is the evaluation period; <= 0 selects 1s.
	Tick time.Duration
	// UpAfter/DownAfter are the hysteresis thresholds: that many
	// CONSECUTIVE overloaded (resp. idle) ticks before acting; <= 0
	// select 2 and 5 (scaling down is deliberately more reluctant).
	UpAfter, DownAfter int
	// UpCooldown/DownCooldown are the minimum gaps after a scale-up
	// (resp. any scaling action) before the next one; <= 0 select 3s
	// and 10s.
	UpCooldown, DownCooldown time.Duration
}

func (c AutoscalerConfig) withDefaults() AutoscalerConfig {
	if c.Min <= 0 {
		c.Min = 1
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.HighUtilization <= 0 {
		c.HighUtilization = 0.75
	}
	if c.LowUtilization <= 0 {
		c.LowUtilization = 0.25
	}
	if c.Tick <= 0 {
		c.Tick = time.Second
	}
	if c.UpAfter <= 0 {
		c.UpAfter = 2
	}
	if c.DownAfter <= 0 {
		c.DownAfter = 5
	}
	if c.UpCooldown <= 0 {
		c.UpCooldown = 3 * time.Second
	}
	if c.DownCooldown <= 0 {
		c.DownCooldown = 10 * time.Second
	}
	return c
}

// Autoscaler is the target-tracking control loop: overloaded ticks
// (p99 above target or utilization above the high-water mark) grow the
// pool one replica at a time, idle ticks (utilization under the
// low-water mark and latency comfortably under target) drain it, and
// hysteresis plus cooldowns keep one noisy window from flapping the
// fleet. Step size is fixed at 1: replica spawn is cheap in-process,
// and single steps compose with the cooldowns into a bounded ramp.
type Autoscaler struct {
	src SnapshotProvider
	act Actuator
	cfg AutoscalerConfig

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	// Evaluation state, owned by the loop goroutine (or the test
	// driving evaluate directly).
	hot, cold        int
	lastUp, lastDown time.Time

	ups      atomic.Uint64
	downs    atomic.Uint64
	replicas atomic.Int64
	failures atomic.Uint64
}

// NewAutoscaler builds the loop (call Start to run it).
func NewAutoscaler(src SnapshotProvider, act Actuator, cfg AutoscalerConfig) *Autoscaler {
	a := &Autoscaler{src: src, act: act, cfg: cfg.withDefaults(), stop: make(chan struct{})}
	a.replicas.Store(int64(act.Replicas()))
	return a
}

// Config returns the effective (defaulted) configuration.
func (a *Autoscaler) Config() AutoscalerConfig { return a.cfg }

// Start runs the loop until Stop, evaluating once per cfg.Tick of wall
// time.
func (a *Autoscaler) Start() {
	a.wg.Add(1)
	go func() {
		defer a.wg.Done()
		tick := time.NewTicker(a.cfg.Tick)
		defer tick.Stop()
		for {
			select {
			case <-a.stop:
				return
			case now := <-tick.C:
				a.evaluate(now)
			}
		}
	}()
}

// Stop halts the loop; idempotent, blocks until the loop exits.
func (a *Autoscaler) Stop() {
	a.stopOnce.Do(func() { close(a.stop) })
	a.wg.Wait()
}

// evaluate runs one control tick at the given time: the loop calls it
// with the ticker's time, and tests drive it with a synthetic clock.
func (a *Autoscaler) evaluate(now time.Time) {
	s := a.src.Snapshot()
	n := a.act.Replicas()
	a.replicas.Store(int64(n))

	util := 0.0
	if s.Capacity > 0 {
		util = float64(s.InFlight) / float64(s.Capacity)
	}
	overloaded := util > a.cfg.HighUtilization ||
		(a.cfg.TargetP99 > 0 && s.P99 > a.cfg.TargetP99)
	idle := util < a.cfg.LowUtilization &&
		(a.cfg.TargetP99 <= 0 || s.P99 < a.cfg.TargetP99/2)
	switch {
	case overloaded:
		a.hot++
		a.cold = 0
	case idle:
		a.cold++
		a.hot = 0
	default:
		a.hot, a.cold = 0, 0
	}

	if a.hot >= a.cfg.UpAfter && n < a.cfg.Max && now.Sub(a.lastUp) >= a.cfg.UpCooldown {
		a.lastUp = now
		a.hot = 0
		if err := a.act.ScaleUp(); err != nil {
			a.failures.Add(1)
		} else {
			a.ups.Add(1)
			a.replicas.Store(int64(n + 1))
		}
		return
	}
	// Scale-down waits out the cooldown after ANY action (including a
	// scale-up), so a grow immediately followed by a quiet window does
	// not oscillate.
	if a.cold >= a.cfg.DownAfter && n > a.cfg.Min &&
		now.Sub(a.lastDown) >= a.cfg.DownCooldown && now.Sub(a.lastUp) >= a.cfg.DownCooldown {
		a.lastDown = now
		a.cold = 0
		if err := a.act.ScaleDown(); err != nil {
			// A refused drain (coverage would break, or a race with a
			// concurrent removal) is not an error state: the guard
			// doing its job. Try again after the next idle run.
			a.failures.Add(1)
		} else {
			a.downs.Add(1)
			a.replicas.Store(int64(n - 1))
		}
	}
}

// Ups returns the number of successful scale-ups.
func (a *Autoscaler) Ups() uint64 { return a.ups.Load() }

// Downs returns the number of successful scale-downs.
func (a *Autoscaler) Downs() uint64 { return a.downs.Load() }

// Failures returns the number of refused scaling actions.
func (a *Autoscaler) Failures() uint64 { return a.failures.Load() }

// Replicas returns the replica count as of the last evaluation (the
// nadmm_autoscale_replicas gauge source).
func (a *Autoscaler) Replicas() int64 { return a.replicas.Load() }

// RegistrySource is the production SnapshotProvider: windowed p99 from
// the tier's request-latency histogram in the obs Registry (cumulative
// histograms are windowed per tick via obs.Delta), in-flight and
// capacity from the provided closures.
type RegistrySource struct {
	delta    *obs.Delta
	inFlight func() int64
	capacity func() int64
	replicas func() int
}

// NewRegistrySource looks up the latency histogram registered under
// metric (e.g. "nadmm_request_latency") and wraps the tier's live
// counters.
func NewRegistrySource(reg *obs.Registry, metric string, inFlight, capacity func() int64, replicas func() int) (*RegistrySource, error) {
	h, ok := reg.FindDuration(metric)
	if !ok {
		return nil, fmt.Errorf("control: no duration metric %q in registry", metric)
	}
	return &RegistrySource{
		delta: obs.NewDelta(h), inFlight: inFlight, capacity: capacity, replicas: replicas,
	}, nil
}

// Snapshot implements SnapshotProvider.
func (s *RegistrySource) Snapshot() Snapshot {
	_, p99 := s.delta.Advance(0.99)
	return Snapshot{
		P99:      p99,
		InFlight: s.inFlight(),
		Capacity: s.capacity(),
		Replicas: s.replicas(),
	}
}
