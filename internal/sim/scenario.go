package sim

import (
	"fmt"
	"time"

	"newtonadmm/internal/cluster"
	"newtonadmm/internal/control"
)

// Fault actions.
const (
	// FaultCrash makes every call to the replica fail unreachable.
	FaultCrash = "crash"
	// FaultRevive clears a crash.
	FaultRevive = "revive"
)

// FaultEvent is one point on a replica's failure/recovery schedule.
type FaultEvent struct {
	At      time.Duration
	Replica int // router replica ID (construction order)
	Action  string
}

// ClassLoad is one arrival stream: a service class driven by an
// arrival process.
type ClassLoad struct {
	Priority control.Priority
	Process  ArrivalProcess
}

// AdmissionSpec selects the router-side admission policy. Kind "" is
// no policy, "rate" a request-rate token bucket, "cost" the cost-aware
// bucket charged rows x features per request.
type AdmissionSpec struct {
	Kind  string
	Rate  float64
	Burst int64
}

// AutoscaleSpec enables the real control.Autoscaler over the simulated
// fleet; zero fields select the control package's defaults.
type AutoscaleSpec struct {
	Min, Max                 int
	TargetP99                time.Duration
	Tick                     time.Duration
	UpAfter, DownAfter       int
	UpCooldown, DownCooldown time.Duration
	HighUtil, LowUtil        float64
}

// Scenario is one reproducible fleet experiment: topology, calibrated
// cost models, arrival streams, failure schedule, and control-plane
// policies. Same scenario + same seed => byte-identical report.
type Scenario struct {
	Name string
	Seed int64
	// Duration bounds generator activity (arrivals, probes, autoscaler
	// ticks); in-flight work drains past it, so the event loop always
	// terminates.
	Duration time.Duration

	// Mode lays out the fleet ("" = "replica"). Either way every member
	// is a sibling of a shard group: "replica" builds Replicas
	// whole-model members, one S = 1 group; "class" builds Shards groups
	// of Replicas siblings each. Zones assigns placement zones
	// round-robin within each group.
	Mode     string
	Replicas int
	Shards   int
	Zones    []string

	// Model shape and batching parameters of every virtual replica.
	Classes, Features int
	MaxBatch          int
	Linger            time.Duration // < 0 disables lingering; 0 selects 200µs
	QueueDepth        int           // per-class backlog bound per replica

	// Calibrated cost models: service time per batch, wire cost per leg.
	Service cluster.ServiceTimeModel
	Net     cluster.NetworkModel

	// Health probing (virtual-time ProbeHealth cadence; <= 0 disables)
	// and the consecutive-failure threshold shared with the router.
	HealthEvery time.Duration
	FailAfter   int

	Admission AdmissionSpec
	Autoscale *AutoscaleSpec
	Load      []ClassLoad
	Faults    []FaultEvent
}

func (sc Scenario) withDefaults() Scenario {
	if sc.Seed <= 0 {
		sc.Seed = 1
	}
	if sc.Duration <= 0 {
		sc.Duration = 2 * time.Second
	}
	if sc.Mode == "" {
		sc.Mode = "replica"
	}
	if sc.Replicas <= 0 {
		sc.Replicas = 1
	}
	if sc.Shards <= 0 {
		sc.Shards = 1
	}
	if sc.Classes <= 0 {
		sc.Classes = 10
	}
	if sc.Features <= 0 {
		sc.Features = 784
	}
	if sc.MaxBatch <= 0 {
		sc.MaxBatch = 64
	}
	if sc.Linger == 0 {
		sc.Linger = 200 * time.Microsecond
	}
	if sc.QueueDepth <= 0 {
		sc.QueueDepth = 256
	}
	if sc.Service.Name == "" {
		sc.Service = cluster.MNISTServiceModel
	}
	if sc.Net.Name == "" {
		sc.Net = cluster.InfiniBand100G
	}
	return sc
}

func (sc Scenario) validate() error {
	if len(sc.Load) == 0 {
		return fmt.Errorf("sim: scenario %q has no load", sc.Name)
	}
	if sc.Mode != "replica" && sc.Mode != "class" {
		return fmt.Errorf("sim: scenario %q has unknown mode %q (want replica or class)", sc.Name, sc.Mode)
	}
	if sc.Mode == "class" && sc.Shards > sc.Classes-1 {
		return fmt.Errorf("sim: scenario %q wants %d shards for %d explicit class rows", sc.Name, sc.Shards, sc.Classes-1)
	}
	for _, ev := range sc.Faults {
		if ev.Action != FaultCrash && ev.Action != FaultRevive {
			return fmt.Errorf("sim: scenario %q has unknown fault action %q", sc.Name, ev.Action)
		}
	}
	return nil
}

// heavyServiceModel is a deliberately slow synthetic replica used by
// the overload scenarios: realistic calibrated models (µs-scale) would
// need million-req/s arrival rates to saturate, which buys nothing in
// an overload test but costs wall time.
var heavyServiceModel = cluster.ServiceTimeModel{Name: "heavy-synth", Base: 50 * time.Microsecond, PerRow: 50 * time.Microsecond}

// diurnalServiceModel sizes a replica at roughly 5k rows/s so the
// diurnal swing crosses the fleet's capacity and forces scaling.
var diurnalServiceModel = cluster.ServiceTimeModel{Name: "diurnal-synth", Base: 100 * time.Microsecond, PerRow: 200 * time.Microsecond}

// Scenarios returns the named regression scenarios in a fixed order.
func Scenarios() []Scenario {
	return []Scenario{
		{
			// Steady moderate load on a healthy fleet: nothing is rejected,
			// nothing errors, latency sits at linger + service + wire.
			Name:     "steady-replica",
			Duration: 2 * time.Second,
			Mode:     "replica",
			Replicas: 3,
			Classes:  10, Features: 784,
			MaxBatch: 64, Linger: 200 * time.Microsecond, QueueDepth: 256,
			Service: cluster.MNISTServiceModel,
			Net:     cluster.InfiniBand100G,
			Load: []ClassLoad{
				{Priority: control.Interactive, Process: Constant{Every: 50 * time.Microsecond}},
			},
		},
		{
			// Open-loop bursts overrun two slow replicas: the bounded
			// per-class queues push back with queue_full, the fleet
			// recovers between bursts, and nothing is lost silently.
			Name:     "burst-backpressure",
			Duration: 2500 * time.Millisecond,
			Mode:     "replica",
			Replicas: 2,
			Classes:  10, Features: 784,
			MaxBatch: 16, Linger: 50 * time.Microsecond, QueueDepth: 8,
			Service: heavyServiceModel,
			Net:     cluster.InfiniBand100G,
			Load: []ClassLoad{
				{Priority: control.Interactive, Process: Burst{
					BaseRate: 2000, BurstRate: 150000,
					Interval: 500 * time.Millisecond, Length: 100 * time.Millisecond,
				}},
			},
		},
		{
			// A diurnal swing crosses the two-replica fleet's capacity;
			// the real autoscaler grows the pool through the peak and
			// drains it through the trough.
			Name:     "diurnal-autoscale",
			Duration: 16 * time.Second,
			Mode:     "replica",
			Replicas: 2,
			Classes:  10, Features: 784,
			MaxBatch: 32, Linger: 100 * time.Microsecond, QueueDepth: 512,
			Service: diurnalServiceModel,
			Net:     cluster.InfiniBand100G,
			Autoscale: &AutoscaleSpec{
				Min: 2, Max: 8,
				TargetP99: 5 * time.Millisecond,
				Tick:      500 * time.Millisecond,
				UpAfter:   2, DownAfter: 4,
				UpCooldown: time.Second, DownCooldown: 3 * time.Second,
				HighUtil: 0.75, LowUtil: 0.2,
			},
			Load: []ClassLoad{
				{Priority: control.Interactive, Process: Diurnal{Base: 1000, Peak: 15000, Period: 8 * time.Second}},
			},
		},
		{
			// R=2 x S=2 grid across two zones: zone b dies mid-run. The
			// sibling retry absorbs every mid-scatter death (zero client
			// errors), coverage degrades but never goes unserviceable, and
			// the virtual health probes restore the zone after revival.
			Name:     "zone-outage",
			Duration: 3 * time.Second,
			Mode:     "class",
			Replicas: 2, Shards: 2,
			Zones:   []string{"zone-a", "zone-b"},
			Classes: 10, Features: 784,
			MaxBatch: 64, Linger: 100 * time.Microsecond, QueueDepth: 256,
			Service:     cluster.MNISTServiceModel,
			Net:         cluster.Ethernet10G,
			HealthEvery: 250 * time.Millisecond,
			FailAfter:   3,
			Load: []ClassLoad{
				{Priority: control.Interactive, Process: Poisson{Rate: 5000}},
			},
			Faults: []FaultEvent{
				{At: time.Second, Replica: 1, Action: FaultCrash},
				{At: time.Second, Replica: 3, Action: FaultCrash},
				{At: 2 * time.Second, Replica: 1, Action: FaultRevive},
				{At: 2 * time.Second, Replica: 3, Action: FaultRevive},
			},
		},
		{
			// The million-request adversarial mix: a background flood
			// (200k req/s, open loop) against an interactive trickle, with
			// the cost-aware admission policy holding the line. The flood
			// is priced out (cost_rejected), interactive is never refused
			// — the starvation bound — and the fleet serves everything it
			// admits without error.
			Name:     "adversarial-mix",
			Duration: 5 * time.Second,
			Mode:     "replica",
			Replicas: 4,
			Classes:  2, Features: 28,
			MaxBatch: 64, Linger: 20 * time.Microsecond, QueueDepth: 256,
			Service:   cluster.HIGGSServiceModel,
			Net:       cluster.InfiniBand100G,
			Admission: AdmissionSpec{Kind: "cost", Rate: 600000, Burst: 60000},
			Load: []ClassLoad{
				{Priority: control.Interactive, Process: Poisson{Rate: 4000}},
				{Priority: control.Background, Process: Constant{Every: 5 * time.Microsecond}},
			},
		},
	}
}

// ByName looks up a named scenario.
func ByName(name string) (Scenario, bool) {
	for _, sc := range Scenarios() {
		if sc.Name == name {
			return sc, true
		}
	}
	return Scenario{}, false
}
