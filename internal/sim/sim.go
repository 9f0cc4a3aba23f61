package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"newtonadmm/internal/control"
	"newtonadmm/internal/faultinject"
	"newtonadmm/internal/obs"
	"newtonadmm/internal/router"
	"newtonadmm/internal/serve"
)

// numReasons mirrors the control package's reason space (none,
// queue_full, rate_limited, cost_rejected) for the per-class rejection
// counters.
const numReasons = 4

// reqRecord tracks one client request across its scatter legs: the
// request completes, in virtual time, when its last leg lands.
type reqRecord struct {
	start  time.Duration
	pri    control.Priority
	legs   int           // legs enqueued on virtual replicas
	done   int           // legs whose virtual service completed
	end    time.Duration // latest leg completion (incl. wire cost)
	closed bool          // the router call returned
	ok     bool          // ... without error
}

// Sim is one scenario execution: the virtual clock, the REAL router
// over virtual replicas, and the virtual-time accounting the report is
// built from. Everything runs on the goroutine driving clock.Run.
type Sim struct {
	clock *Clock
	sc    Scenario

	rtr    *router.Router
	reps   map[int]*SimReplica // router replica ID -> virtual replica
	faults map[int]*faultinject.Backend

	cur       *reqRecord // request currently inside a router call
	vInflight int64      // legs enqueued but not virtually completed
	zoneRR    int        // round-robin zone cursor for scale-ups

	rows [][]float64 // deterministic request row pool
	out  []int       // reusable predict output

	latAll    *obs.Histogram // all classes, feeds the autoscaler window
	lat       [control.NumPriorities]*obs.Histogram
	arrived   [control.NumPriorities]int64
	completed [control.NumPriorities]int64
	errored   [control.NumPriorities]int64
	rejected  [control.NumPriorities][numReasons]int64

	coverage     []CoverageTransition
	lastCoverage string
	scale        []ScalePoint
	as           *control.Autoscaler
}

// Run executes the scenario to completion and returns its report.
func Run(sc Scenario) (*ScenarioResult, error) {
	sc = sc.withDefaults()
	if err := sc.validate(); err != nil {
		return nil, err
	}
	s := &Sim{
		clock:  NewClock(),
		sc:     sc,
		reps:   make(map[int]*SimReplica),
		faults: make(map[int]*faultinject.Backend),
		latAll: obs.NewHistogram(),
		out:    make([]int, 1),
	}
	for c := range s.lat {
		s.lat[c] = obs.NewHistogram()
	}
	s.genRows()
	if err := s.buildFleet(); err != nil {
		return nil, err
	}
	defer s.rtr.Close()
	if err := s.installAdmission(); err != nil {
		return nil, err
	}
	s.noteCoverage()
	s.scheduleLoad()
	s.scheduleFaults()
	s.scheduleProbes()
	s.scheduleAutoscaler()

	s.clock.Run()
	return s.result(), nil
}

// genRows builds the deterministic request row pool from the scenario
// seed.
func (s *Sim) genRows() {
	rng := rand.New(rand.NewSource(s.sc.Seed))
	s.rows = make([][]float64, 32)
	for i := range s.rows {
		row := make([]float64, s.sc.Features)
		for j := range row {
			row[j] = rng.Float64()*2 - 1
		}
		s.rows[i] = row
	}
}

// zoneOf returns the placement zone for the i-th member of a group.
func (s *Sim) zoneOf(i int) string {
	if len(s.sc.Zones) == 0 {
		return ""
	}
	return s.sc.Zones[i%len(s.sc.Zones)]
}

// fullReplicaConfig is the shape of one whole-model virtual replica.
func (s *Sim) fullReplicaConfig(zone string) replicaConfig {
	return replicaConfig{
		classes:    s.sc.Classes,
		features:   s.sc.Features,
		shard:      router.ShardRange{High: s.sc.Classes - 1},
		zone:       zone,
		maxBatch:   s.sc.MaxBatch,
		linger:     s.sc.Linger,
		queueDepth: s.sc.QueueDepth,
		service:    s.sc.Service,
		net:        s.sc.Net,
	}
}

// buildFleet constructs the virtual replicas (each behind a faultinject
// gate) and the REAL router over them: SerialScatter for deterministic
// RNG consumption, wall health monitor disabled (the simulator drives
// ProbeHealth from virtual-time events).
func (s *Sim) buildFleet() error {
	var backends []router.Backend
	switch s.sc.Mode {
	case "class":
		ranges, err := router.PlanShards(s.sc.Classes, s.sc.Shards)
		if err != nil {
			return err
		}
		for si, rng := range ranges {
			for ri := 0; ri < s.sc.Replicas; ri++ {
				cfg := s.fullReplicaConfig(s.zoneOf(ri))
				cfg.totalClasses = s.sc.Classes
				cfg.classes = rng.Width() + 1
				cfg.shard = rng
				cfg.shardIndex = si
				cfg.shardCount = s.sc.Shards
				backends = append(backends, faultinject.WrapBackend(newSimReplica(s, cfg)))
			}
		}
	default:
		for i := 0; i < s.sc.Replicas; i++ {
			backends = append(backends, faultinject.WrapBackend(newSimReplica(s, s.fullReplicaConfig(s.zoneOf(i)))))
		}
	}
	s.zoneRR = len(backends)
	rtr, err := router.New(backends, router.Options{
		HealthEvery:   -1,
		FailAfter:     s.sc.FailAfter,
		SampleEvery:   -1,
		SerialScatter: true,
	})
	if err != nil {
		return err
	}
	s.rtr = rtr
	for _, rep := range rtr.Pool().Replicas() {
		s.adoptReplica(rep)
	}
	return nil
}

// adoptReplica links a registered pool entry back to its virtual
// replica so legs can adjust the entry's load gauge.
func (s *Sim) adoptReplica(rep *router.Replica) {
	fb := rep.Backend().(*faultinject.Backend)
	sr := fb.Inner().(*SimReplica)
	sr.rep = rep
	s.reps[rep.ID] = sr
	s.faults[rep.ID] = fb
}

// installAdmission builds the scenario's admission policy with its
// refill clock bound to the virtual clock.
func (s *Sim) installAdmission() error {
	var p *control.TokenBucket
	switch s.sc.Admission.Kind {
	case "":
		return nil
	case "rate":
		p = control.NewTokenBucket(s.sc.Admission.Rate, int(s.sc.Admission.Burst))
	case "cost":
		p = control.NewCostPolicy(s.sc.Admission.Rate, s.sc.Admission.Burst)
	default:
		return fmt.Errorf("sim: unknown admission kind %q (want \"\", \"rate\", or \"cost\")", s.sc.Admission.Kind)
	}
	p.SetNow(s.clock.Now)
	s.rtr.SetAdmission(p)
	return nil
}

// scheduleLoad starts one self-rescheduling arrival chain per class
// load, each with its own seeded RNG (gaps and row picks share it).
func (s *Sim) scheduleLoad() {
	for i, cl := range s.sc.Load {
		cl := cl
		rng := rand.New(rand.NewSource(s.sc.Seed + 7919*int64(i+1)))
		var next func()
		next = func() {
			s.arrive(cl.Priority, rng)
			if t := s.clock.VNow() + cl.Process.Next(rng, s.clock.VNow()); t <= s.sc.Duration {
				s.clock.At(t, next)
			}
		}
		if t := cl.Process.Next(rng, 0); t <= s.sc.Duration {
			s.clock.At(t, next)
		}
	}
}

// scheduleFaults registers the scenario's crash/revive timeline.
func (s *Sim) scheduleFaults() {
	for _, ev := range s.sc.Faults {
		ev := ev
		s.clock.At(ev.At, func() {
			fb, ok := s.faults[ev.Replica]
			if !ok {
				return
			}
			switch ev.Action {
			case FaultCrash:
				fb.Crash()
			case FaultRevive:
				fb.Revive()
			}
			s.noteCoverage()
		})
	}
}

// scheduleProbes drives the REAL pool health monitor body from virtual
// time when the scenario asks for probing.
func (s *Sim) scheduleProbes() {
	if s.sc.HealthEvery <= 0 {
		return
	}
	failAfter := s.sc.FailAfter
	if failAfter <= 0 {
		failAfter = 3
	}
	var probe func()
	probe = func() {
		s.rtr.Pool().ProbeHealth(failAfter)
		s.noteCoverage()
		if t := s.clock.VNow() + s.sc.HealthEvery; t <= s.sc.Duration {
			s.clock.At(t, probe)
		}
	}
	s.clock.At(s.sc.HealthEvery, probe)
}

// scheduleAutoscaler wires the REAL control loop — Evaluate driven by
// virtual ticks, the latency window advanced over the simulator's own
// histogram, scaling actuated through the router's membership API.
func (s *Sim) scheduleAutoscaler() {
	spec := s.sc.Autoscale
	if spec == nil {
		return
	}
	src := &simSource{s: s, delta: obs.NewDelta(s.latAll)}
	s.as = control.NewAutoscaler(src, simActuator{s: s}, control.AutoscalerConfig{
		Min: spec.Min, Max: spec.Max,
		TargetP99:       spec.TargetP99,
		HighUtilization: spec.HighUtil, LowUtilization: spec.LowUtil,
		Tick:    spec.Tick,
		UpAfter: spec.UpAfter, DownAfter: spec.DownAfter,
		UpCooldown: spec.UpCooldown, DownCooldown: spec.DownCooldown,
	})
	s.scale = append(s.scale, ScalePoint{At: 0, Replicas: len(s.rtr.Pool().Replicas())})
	tick := s.as.Config().Tick
	var evaluate func()
	evaluate = func() {
		before := len(s.rtr.Pool().Replicas())
		s.as.Evaluate(s.clock.Now())
		if after := len(s.rtr.Pool().Replicas()); after != before {
			s.scale = append(s.scale, ScalePoint{At: s.clock.VNow(), Replicas: after})
		}
		if t := s.clock.VNow() + tick; t <= s.sc.Duration {
			s.clock.At(t, evaluate)
		}
	}
	s.clock.At(tick, evaluate)
}

// arrive is one client request: build the batch, call the REAL router
// synchronously (legs land on virtual replicas during the call), and
// classify the outcome with the real rejection taxonomy.
func (s *Sim) arrive(pri control.Priority, rng *rand.Rand) {
	s.arrived[pri]++
	b := &router.Batch{Priority: pri}
	b.AddDense(s.rows[rng.Intn(len(s.rows))])
	rec := &reqRecord{start: s.clock.VNow(), pri: pri}
	s.cur = rec
	err := s.rtr.Predict(b, s.out[:1])
	s.cur = nil
	rec.closed = true
	rec.ok = err == nil
	if err == nil {
		if rec.legs == 0 { // zero-row edge: nothing to wait for
			s.finish(rec)
		}
		return
	}
	if reason, _, isReject := serve.RejectionOf(err); isReject {
		s.rejected[pri][reason]++
		return
	}
	s.errored[pri]++
	s.noteCoverage() // data-plane errors can change replica health
}

// legDone lands one virtual leg. The request finishes — and its
// latency is recorded — when the router call succeeded and the last
// leg has landed.
func (s *Sim) legDone(r *SimReplica, j *vjob, end time.Duration) {
	s.vInflight--
	if r.rep != nil {
		r.rep.AdjustLoad(-1)
	}
	rec := j.rec
	if rec == nil {
		return
	}
	rec.done++
	if end > rec.end {
		rec.end = end
	}
	if rec.closed && rec.ok && rec.done == rec.legs {
		s.finish(rec)
	}
}

func (s *Sim) finish(rec *reqRecord) {
	s.completed[rec.pri]++
	lat := rec.end - rec.start
	if lat < 0 {
		lat = 0
	}
	s.lat[rec.pri].Observe(lat)
	s.latAll.Observe(lat)
}

// noteCoverage appends a transition when the pool's coverage status
// changed since last observed.
func (s *Sim) noteCoverage() {
	status, _ := s.rtr.Pool().Coverage()
	if status != s.lastCoverage {
		s.lastCoverage = status
		s.coverage = append(s.coverage, CoverageTransition{At: s.clock.VNow(), Status: status})
	}
}

// spawnReplica is the scale-up actuator: a fresh virtual replica joins
// the REAL pool through the router's membership API and starts taking
// traffic immediately.
func (s *Sim) spawnReplica() error {
	sr := newSimReplica(s, s.fullReplicaConfig(s.zoneOf(s.zoneRR)))
	s.zoneRR++
	fb := faultinject.WrapBackend(sr)
	id, err := s.rtr.AddBackend(fb)
	if err != nil {
		sr.Close()
		return err
	}
	for _, rep := range s.rtr.Pool().Replicas() {
		if rep.ID == id {
			s.adoptReplica(rep)
			return nil
		}
	}
	return fmt.Errorf("sim: replica %d not found after AddBackend", id)
}

// retireReplica is the scale-down actuator: retire the newest virtually
// idle replica the coverage guard will release. The pool's drain spin
// is wall-clock, so only idle replicas (no virtual backlog) are
// eligible — a refusal is the guard doing its job and surfaces as an
// autoscaler failure, exactly like production.
func (s *Sim) retireReplica() error {
	reps := s.rtr.Pool().Replicas()
	for i := len(reps) - 1; i >= 0; i-- {
		id := reps[i].ID
		sr := s.reps[id]
		if sr == nil || !sr.idle() {
			continue
		}
		if s.rtr.Pool().CanDrain(id) != nil {
			continue
		}
		if err := s.rtr.RemoveBackend(id, time.Millisecond); err != nil {
			return err
		}
		delete(s.reps, id)
		delete(s.faults, id)
		return nil
	}
	return errors.New("sim: no idle drainable replica")
}

// simSource feeds the real autoscaler from virtual-time accounting:
// windowed p99 over the simulator's latency histogram, in-flight from
// the virtual leg gauge, capacity as replicas x max batch.
type simSource struct {
	s     *Sim
	delta *obs.Delta
}

func (src *simSource) Snapshot() control.Snapshot {
	_, p99 := src.delta.Advance(0.99)
	n := len(src.s.rtr.Pool().Replicas())
	return control.Snapshot{
		P99:      p99,
		InFlight: src.s.vInflight,
		Capacity: int64(n * src.s.sc.MaxBatch),
		Replicas: n,
	}
}

// simActuator routes the real autoscaler's decisions through the real
// router membership API.
type simActuator struct{ s *Sim }

func (a simActuator) Replicas() int    { return len(a.s.rtr.Pool().Replicas()) }
func (a simActuator) ScaleUp() error   { return a.s.spawnReplica() }
func (a simActuator) ScaleDown() error { return a.s.retireReplica() }
