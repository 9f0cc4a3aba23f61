package router

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"newtonadmm/internal/obs"
	"newtonadmm/internal/serve"
)

// State is a replica's routing eligibility.
type State int32

const (
	// StateHealthy replicas receive traffic.
	StateHealthy State = iota
	// StateDraining replicas receive no new traffic but finish what they
	// accepted; set by the drain API, never by the health monitor, and
	// only Undrain clears it.
	StateDraining
	// StateDown replicas failed consecutive health probes; the monitor
	// restores them to Healthy when probes succeed again.
	StateDown
)

func (s State) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDraining:
		return "draining"
	case StateDown:
		return "down"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Replica is one pool member: a backend plus the routing-side view of it
// (health state, in-flight load for least-loaded picking, counters).
type Replica struct {
	// ID is the replica's position in its pool (Pool.Replicas()[ID]).
	ID int
	// GroupID is the shard group this replica belongs to (index into
	// Pool.Groups); -1 until groups are assigned.
	GroupID int
	backend Backend

	meta  atomic.Pointer[serve.ModelMeta] // refreshed by the health monitor
	state atomic.Int32
	fails atomic.Int32 // consecutive failed probes

	inflight atomic.Int64 // router calls on the backend right now
	done     atomic.Int64
	errs     atomic.Int64
	rejected atomic.Int64

	// Latency is the per-request backend round-trip observed by the
	// router (scatter leg only; merge time is router-side).
	Latency *obs.Histogram
}

// State returns the replica's current routing state.
func (r *Replica) State() State { return State(r.state.Load()) }

// Meta returns the last known snapshot metadata, as the backend
// reported it (its Zone is the replica's placement label).
func (r *Replica) Meta() serve.ModelMeta { return *r.meta.Load() }

// InFlight returns the number of router requests currently executing on
// this replica.
func (r *Replica) InFlight() int64 { return r.inflight.Load() }

// Backend returns the replica's backend (tests hot-swap through it).
func (r *Replica) Backend() Backend { return r.backend }

// available reports whether new traffic may be routed here.
func (r *Replica) available() bool { return r.State() == StateHealthy }

// ReplicaStats is a counters snapshot for /metricz and the load
// generator's per-replica breakdown.
type ReplicaStats struct {
	ID       int
	Group    int
	Zone     string
	State    string
	Version  int64
	InFlight int64
	Done     int64
	Errors   int64
	Rejected int64
	Latency  obs.Snapshot
}

// Stats snapshots the replica's counters.
func (r *Replica) Stats() ReplicaStats {
	m := r.Meta()
	return ReplicaStats{
		ID:       r.ID,
		Group:    r.GroupID,
		Zone:     m.Zone,
		State:    r.State().String(),
		Version:  m.Version,
		InFlight: r.InFlight(),
		Done:     r.done.Load(),
		Errors:   r.errs.Load(),
		Rejected: r.rejected.Load(),
		Latency:  r.Latency.Snapshot(),
	}
}

// Group is one shard group of the R×S grid: the replicas jointly
// serving one class-shard range. Health is tracked per member;
// serviceability is a group property — the group serves as long as at
// least one member is available.
type Group struct {
	ID      int
	Range   ShardRange
	members []*Replica
}

// Members returns the group's replicas (fixed after construction).
func (g *Group) Members() []*Replica { return g.members }

// availableCount counts members currently accepting traffic.
func (g *Group) availableCount() int {
	n := 0
	for _, r := range g.members {
		if r.available() {
			n++
		}
	}
	return n
}

// Pool owns the replica set, its shard groups, and the health monitor.
// Membership is fixed at construction: a replica's ID is its position
// in the pool, and the replica and group slices never change after
// setGroups, so readers need no lock.
type Pool struct {
	replicas []*Replica
	groups   []*Group

	mu  sync.Mutex // guards rng
	rng *rand.Rand

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// newPool builds a pool over backends whose metas were already probed.
func newPool(backends []Backend, metas []serve.ModelMeta) *Pool {
	p := &Pool{
		rng:  rand.New(rand.NewSource(1)), // tie-breaking only; no correctness impact
		stop: make(chan struct{}),
	}
	for i, b := range backends {
		r := &Replica{ID: i, GroupID: -1, backend: b, Latency: obs.NewHistogram()}
		m := metas[i]
		r.meta.Store(&m)
		p.replicas = append(p.replicas, r)
	}
	return p
}

// setGroups wires the planner's placement into the pool: one Group per
// plan entry, members resolved to replicas and back-linked via GroupID.
// Called once at construction, before any traffic.
func (p *Pool) setGroups(plans []GroupPlan) {
	p.groups = p.groups[:0]
	for gi, plan := range plans {
		g := &Group{ID: gi, Range: plan.Range}
		for _, ri := range plan.Members {
			r := p.replicas[ri]
			r.GroupID = gi
			g.members = append(g.members, r)
		}
		p.groups = append(p.groups, g)
	}
}

// byID resolves a replica by its ID, its position in the pool. Returns
// nil when id is out of range (the admin API passes client input
// through).
func (p *Pool) byID(id int) *Replica {
	if id < 0 || id >= len(p.replicas) {
		return nil
	}
	return p.replicas[id]
}

// Groups returns the shard groups in range order.
func (p *Pool) Groups() []*Group { return p.groups }

// Replicas returns the pool members; a member's ID is its index.
func (p *Pool) Replicas() []*Replica { return p.replicas }

// Stats snapshots every replica.
func (p *Pool) Stats() []ReplicaStats {
	out := make([]ReplicaStats, len(p.replicas))
	for i, r := range p.replicas {
		out[i] = r.Stats()
	}
	return out
}

// failoverOrderInto writes the available members to try into buf
// (grown as needed, reused across calls, so the scatter hot path stays
// allocation-free at steady state), first choice first. The first
// choice is the power-of-two-choices pick: two distinct available
// members at random, the one with fewer requests in flight wins. It is
// swapped to the front; the rest follow in pool order (modulo that
// swap).
func (p *Pool) failoverOrderInto(members []*Replica, buf []*Replica) []*Replica {
	buf = buf[:0]
	for _, r := range members {
		if r.available() {
			buf = append(buf, r)
		}
	}
	if len(buf) < 2 {
		return buf
	}
	p.mu.Lock()
	i := p.rng.Intn(len(buf))
	j := p.rng.Intn(len(buf) - 1)
	p.mu.Unlock()
	if j >= i {
		j++
	}
	win := i
	if buf[j].InFlight() < buf[i].InFlight() {
		win = j
	}
	buf[0], buf[win] = buf[win], buf[0]
	return buf
}

// ShardCoverage is one group's serviceability summary for /healthz.
type ShardCoverage struct {
	Group   int `json:"group"`
	Low     int `json:"low"`
	High    int `json:"high"`
	Healthy int `json:"healthy"`
	Members int `json:"members"`
}

// Coverage summarizes fleet serviceability by group: "ok" when every
// member of every group is available, "degraded" when every group still
// has at least one available member but some member is down or
// draining, "unserviceable" when some group has zero available members
// (that shard's partial logits cannot be assembled and the router's
// requests fail 503 until a member recovers).
func (p *Pool) Coverage() (string, []ShardCoverage) {
	status := "ok"
	shards := make([]ShardCoverage, len(p.groups))
	for i, g := range p.groups {
		n := g.availableCount()
		shards[i] = ShardCoverage{
			Group:   g.ID,
			Low:     g.Range.Low,
			High:    g.Range.High,
			Healthy: n,
			Members: len(g.members),
		}
		switch {
		case n == 0:
			status = "unserviceable"
		case n < len(g.members) && status == "ok":
			status = "degraded"
		}
	}
	return status, shards
}

// CanDrain reports whether draining the replica leaves its group
// serviceable: it is refused when the replica is the last available
// member of its group, because the drain would take a shard's coverage
// to zero. Pool.Drain itself stays unguarded — operators (and tests)
// can force the drain; this is the advisory check the admin API applies
// unless forced.
func (p *Pool) CanDrain(id int) error {
	r := p.byID(id)
	if r == nil {
		return fmt.Errorf("router: no replica %d", id)
	}
	if !r.available() {
		return nil
	}
	g := p.groups[r.GroupID]
	if g.availableCount() <= 1 {
		return fmt.Errorf("router: replica %d is the last available member of shard group %d [%d,%d); draining it makes the shard unserviceable (use force to override)",
			id, g.ID, g.Range.Low, g.Range.High)
	}
	return nil
}

// Drain marks the replica as draining (no new traffic) and blocks until
// its in-flight requests finish or the timeout expires. Accepted work is
// never dropped: requests already executing hold their inflight
// reference until answered. Draining is sticky until Undrain.
func (p *Pool) Drain(id int, timeout time.Duration) error {
	r := p.byID(id)
	if r == nil {
		return fmt.Errorf("router: no replica %d", id)
	}
	r.state.Store(int32(StateDraining))
	deadline := time.Now().Add(timeout)
	for r.InFlight() > 0 {
		if timeout > 0 && time.Now().After(deadline) {
			return fmt.Errorf("router: replica %d still has %d in flight after %v", id, r.InFlight(), timeout)
		}
		time.Sleep(200 * time.Microsecond)
	}
	return nil
}

// Undrain returns a draining replica to service.
func (p *Pool) Undrain(id int) error {
	r := p.byID(id)
	if r == nil {
		return fmt.Errorf("router: no replica %d", id)
	}
	r.state.CompareAndSwap(int32(StateDraining), int32(StateHealthy))
	return nil
}

// startHealth launches the periodic health monitor: every interval each
// replica is probed via Meta; failAfter consecutive failures mark a
// healthy replica Down, one success restores a Down replica and
// refreshes its metadata (version changes surface here between
// requests). Draining replicas are probed but their state is operator-
// owned.
func (p *Pool) startHealth(interval time.Duration, failAfter int) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-tick.C:
				p.probeHealth(failAfter)
			}
		}
	}()
}

// probeHealth runs one health-monitor sweep: every replica is probed
// via Meta; failAfter consecutive failures mark a healthy replica
// Down, one success restores a Down replica and refreshes its
// metadata.
func (p *Pool) probeHealth(failAfter int) {
	for _, r := range p.replicas {
		m, err := r.backend.Meta()
		if err != nil {
			if n := r.fails.Add(1); int(n) >= failAfter {
				r.state.CompareAndSwap(int32(StateHealthy), int32(StateDown))
			}
			continue
		}
		r.fails.Store(0)
		r.meta.Store(&m)
		r.state.CompareAndSwap(int32(StateDown), int32(StateHealthy))
	}
}

// noteRequestError feeds data-plane failures into the health signal: a
// transport-level error counts like a failed probe so a dead replica is
// evicted between health ticks (failAfter data-plane errors in a row
// mark it Down; the monitor restores it when probes succeed).
func (p *Pool) noteRequestError(r *Replica, failAfter int) {
	if n := r.fails.Add(1); int(n) >= failAfter {
		r.state.CompareAndSwap(int32(StateHealthy), int32(StateDown))
	}
}

// Close stops the health monitor and closes every backend.
func (p *Pool) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
	for _, r := range p.replicas {
		r.backend.Close()
	}
}
