package cluster

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"newtonadmm/internal/device"
	"newtonadmm/internal/linalg"
)

// Config describes a simulated cluster.
type Config struct {
	// Ranks is the number of compute nodes; must be >= 1.
	Ranks int
	// Network is the interconnect cost model; the zero value selects
	// the paper's InfiniBand100G.
	Network NetworkModel
	// UseTCP selects the real TCP loopback transport instead of
	// in-process channels.
	UseTCP bool
	// BasePort is the first TCP port (0 lets the kernel choose).
	BasePort int
	// DeviceWorkers is the accelerator worker-pool size per rank;
	// <= 0 divides the machine's cores evenly among ranks.
	DeviceWorkers int
	// CollectiveTimeout bounds every blocking transport wait: a Recv (or
	// stalled Send) that exceeds it fails with ErrCollectiveTimeout, so a
	// hung-but-connected rank cannot wedge its peers' collectives. Zero
	// disables deadlines (legacy behavior). It must comfortably exceed
	// the largest per-epoch compute imbalance between ranks, since a
	// fast rank waits in Recv while a slow one still computes.
	CollectiveTimeout time.Duration
	// WrapTransport, when non-nil, wraps each rank's transport after
	// construction — the deterministic fault-injection seam used by
	// internal/faultinject. It must return a usable Transport.
	WrapTransport func(rank int, t Transport) Transport
}

func (c Config) withDefaults() Config {
	if c.Ranks <= 0 {
		c.Ranks = 1
	}
	if c.Network == (NetworkModel{}) {
		c.Network = InfiniBand100G
	}
	if c.DeviceWorkers <= 0 {
		c.DeviceWorkers = runtime.NumCPU() / c.Ranks
		if c.DeviceWorkers < 1 {
			c.DeviceWorkers = 1
		}
	}
	return c
}

// Node is one rank's view of the cluster inside a Run body. Collective
// methods are synchronization points for every rank: all ranks must call
// the same sequence of collectives (standard SPMD discipline). On
// transport failure the collective panics with a commError, which Run
// recovers and converts to an error.
type Node struct {
	rank, size int
	tr         Transport
	model      NetworkModel
	// Dev is this rank's private compute accelerator.
	Dev *device.Device

	clock    time.Duration // virtual time: max over ranks of compute + modeled comm
	compute  time.Duration // this rank's accumulated local compute
	commTime time.Duration // modeled communication cost accumulated
	rounds   int           // collective operations performed
	sentVecs int           // messages sent, frozen collectives included
	mark     time.Time     // start of the current compute segment
}

// NodeStats is the timing summary of one rank after Run completes.
type NodeStats struct {
	Rank     int
	Clock    time.Duration // final virtual time
	Compute  time.Duration // local compute portion
	CommTime time.Duration // modeled communication portion
	Rounds   int           // collectives performed
	DevStats device.Stats
	SentVecs int // messages sent, frozen collectives included
}

type commError struct {
	rank int
	err  error
}

// Rank returns this node's rank in [0, Size()).
func (n *Node) Rank() int { return n.rank }

// Size returns the number of ranks.
func (n *Node) Size() int { return n.size }

// Model returns the interconnect model in effect.
func (n *Node) Model() NetworkModel { return n.model }

// Clock returns the current virtual time at this rank. It is updated at
// every collective; between collectives it lags local compute.
func (n *Node) Clock() time.Duration { return n.clock }

// ComputeTime returns this rank's accumulated local compute time.
func (n *Node) ComputeTime() time.Duration { return n.compute }

// CommTime returns the accumulated modeled communication time.
func (n *Node) CommTime() time.Duration { return n.commTime }

// Rounds returns the number of collective operations performed.
func (n *Node) Rounds() int { return n.rounds }

func (n *Node) check(err error) {
	if err != nil {
		panic(commError{rank: n.rank, err: err})
	}
}

// send delivers data to rank to followed by this rank's clock. The
// stamped copy is a fresh slice per call: a buffer retained per Node kept
// peak RSS higher on train-sparse-tcp for no time gain.
func (n *Node) send(to int, data []float64) {
	out := append(append(make([]float64, 0, len(data)+1), data...), float64(n.clock))
	n.sentVecs++
	n.check(n.tr.Send(to, out))
}

// recv returns op's next payload from rank from without its clock
// stamp, after raising this rank's clock to the stamp. A message without
// a stamp, or with one that is not a valid clock, fails the collective,
// and so does a payload that is not want values long (a size mismatch
// naming the sender).
func (n *Node) recv(op string, from, want int) []float64 {
	data, err := n.tr.Recv(from)
	n.check(err)
	last := len(data) - 1
	if last < 0 || !(data[last] >= 0 && data[last] < math.MaxInt64) {
		n.check(fmt.Errorf("cluster: rank %d sent a message without a valid clock stamp", from))
	}
	if last != want {
		n.check(fmt.Errorf("cluster: %s size mismatch: rank %d sent %d values, want %d", op, from, last, want))
	}
	n.clock = max(n.clock, time.Duration(data[last]))
	return data[:last]
}

// closeComputeSegment folds the wall time since the last mark into the
// rank's compute account.
func (n *Node) closeComputeSegment() {
	now := time.Now()
	n.compute += now.Sub(n.mark)
	n.clock += now.Sub(n.mark)
	n.mark = now
}

// charge ends a collective, whose messages already raised the clock to
// every stamp received: it adds the modeled cost and counts the round.
func (n *Node) charge(cost time.Duration) {
	n.clock += cost
	n.commTime += cost
	n.rounds++
	n.mark = time.Now() // next compute segment starts after the collective
}

// Bcast distributes root's vec to every rank, overwriting vec elsewhere.
// All ranks must pass equal-length buffers. The root hears from no rank,
// so its clock advances by the cost alone.
func (n *Node) Bcast(root int, vec []float64) {
	n.closeComputeSegment()
	if n.rank == root {
		for r := 0; r < n.size; r++ {
			if r != root {
				n.send(r, vec)
			}
		}
	} else {
		copy(vec, n.recv("bcast", root, len(vec)))
	}
	n.charge(n.model.BcastCost(n.size, 8*len(vec)))
}

// Gather collects every rank's vec at root. Root receives a slice indexed
// by rank (its own entry is a copy); other ranks receive nil. All ranks
// must pass equal-length buffers.
func (n *Node) Gather(root int, vec []float64) [][]float64 {
	n.closeComputeSegment()
	var out [][]float64
	if n.rank == root {
		out = make([][]float64, n.size)
		for r := 0; r < n.size; r++ {
			if r == root {
				out[r] = append([]float64(nil), vec...)
			} else {
				out[r] = n.recv("gather", r, len(vec))
			}
		}
	} else {
		n.send(root, vec)
	}
	n.charge(n.model.GatherCost(n.size, 8*len(vec)))
	return out
}

// AllReduceSum replaces vec on every rank with the element-wise sum over
// ranks. All ranks must pass equal-length buffers.
func (n *Node) AllReduceSum(vec []float64) {
	n.closeComputeSegment()
	if n.rank == 0 {
		for r := 1; r < n.size; r++ {
			linalg.Add(vec, n.recv("allreduce", r, len(vec)))
		}
		for r := 1; r < n.size; r++ {
			n.send(r, vec)
		}
	} else {
		n.send(0, vec)
		copy(vec, n.recv("allreduce", 0, len(vec)))
	}
	n.charge(n.model.AllReduceCost(n.size, 8*len(vec)))
}

// AllReduceMax replaces vec on every rank with the element-wise max.
// All ranks must pass equal-length buffers.
func (n *Node) AllReduceMax(vec []float64) {
	n.closeComputeSegment()
	if n.rank == 0 {
		for r := 1; r < n.size; r++ {
			data := n.recv("allreduce-max", r, len(vec))
			for i := range vec {
				if data[i] > vec[i] {
					vec[i] = data[i]
				}
			}
		}
		for r := 1; r < n.size; r++ {
			n.send(r, vec)
		}
	} else {
		n.send(0, vec)
		copy(vec, n.recv("allreduce-max", 0, len(vec)))
	}
	n.charge(n.model.AllReduceCost(n.size, 8*len(vec)))
}

// Frozen runs fn with the virtual clock frozen: any compute and
// collectives inside fn leave the rank's timing accounts untouched. It is
// for instrumentation (objective traces, test accuracy) that exists only
// in the harness, not in the algorithm being measured. Like collectives,
// if fn communicates, every rank must call Frozen at the same point.
// Its messages still count in SentVecs: they cross the wire.
func (n *Node) Frozen(fn func()) {
	n.closeComputeSegment()
	savedClock, savedCompute := n.clock, n.compute
	savedComm, savedRounds := n.commTime, n.rounds
	fn()
	n.clock, n.compute = savedClock, savedCompute
	n.commTime, n.rounds = savedComm, savedRounds
	n.mark = time.Now()
}

// Stats snapshots this rank's accounting (typically called at the end of
// the Run body).
func (n *Node) Stats() NodeStats {
	return NodeStats{
		Rank:     n.rank,
		Clock:    n.clock,
		Compute:  n.compute,
		CommTime: n.commTime,
		Rounds:   n.rounds,
		DevStats: n.Dev.Stats(),
		SentVecs: n.sentVecs,
	}
}

// Run executes body as an SPMD program: one goroutine per rank, each with
// its own Node and accelerator. It returns per-rank stats. A panic or
// error in any rank's body aborts the run — the failing rank broadcasts
// an abort so every survivor exits its blocking collective promptly with
// a typed error instead of hanging — and all rank errors are aggregated
// with errors.Join, so the root cause is never hidden behind a casualty.
func Run(cfg Config, body func(n *Node) error) ([]NodeStats, error) {
	cfg = cfg.withDefaults()
	var transports []Transport
	if cfg.UseTCP {
		var err error
		transports, err = NewTCPGroupTimeout(cfg.Ranks, cfg.BasePort, cfg.CollectiveTimeout)
		if err != nil {
			return nil, err
		}
	} else {
		transports = NewInprocGroupTimeout(cfg.Ranks, cfg.CollectiveTimeout)
	}
	if cfg.WrapTransport != nil {
		for r := range transports {
			transports[r] = cfg.WrapTransport(r, transports[r])
		}
	}

	stats := make([]NodeStats, cfg.Ranks)
	errs := make([]error, cfg.Ranks)
	done := make(chan int, cfg.Ranks)
	start := time.Now()
	for r := 0; r < cfg.Ranks; r++ {
		node := &Node{
			rank:  r,
			size:  cfg.Ranks,
			tr:    transports[r],
			model: cfg.Network,
			Dev:   device.New(fmt.Sprintf("gpu-%d", r), cfg.DeviceWorkers),
			mark:  start,
		}
		go func(r int, node *Node) {
			defer func() {
				if p := recover(); p != nil {
					if ce, ok := p.(commError); ok {
						errs[r] = fmt.Errorf("rank %d communication: %w", ce.rank, ce.err)
					} else {
						errs[r] = fmt.Errorf("rank %d panic: %v", r, p)
					}
				}
				if errs[r] != nil {
					// Coordinated abort: poison every rank's pending
					// collectives so no survivor waits out its deadline
					// (or hangs forever when deadlines are off).
					node.tr.Abort()
				}
				node.Dev.Close()
				node.tr.Close()
				stats[r] = node.Stats()
				done <- r
			}()
			if err := body(node); err != nil {
				errs[r] = fmt.Errorf("rank %d: %w", r, err)
			}
		}(r, node)
	}
	for i := 0; i < cfg.Ranks; i++ {
		<-done
	}
	var all []error
	for _, err := range errs {
		if err != nil {
			all = append(all, err)
		}
	}
	if len(all) > 0 {
		return stats, errors.Join(all...)
	}
	return stats, nil
}

// RestartPolicy bounds RunRestart's recovery loop.
type RestartPolicy struct {
	// MaxRestarts is the number of additional attempts after the first
	// run fails with a communication error; <= 0 disables restarting.
	MaxRestarts int
	// Backoff is the sleep before the first restart, doubling per
	// attempt; <= 0 selects 100ms.
	Backoff time.Duration
}

// RunRestart is Run with bounded restart-on-communication-failure: when
// the body fails with a typed transport error (a crashed or hung rank —
// see IsCommError), the whole SPMD program is rebuilt on fresh
// transports and re-run after an exponential backoff, up to
// pol.MaxRestarts times. The body receives the attempt index (0 for the
// first run) so it can resume from its latest checkpoint on retries.
// Algorithmic errors never restart.
func RunRestart(cfg Config, pol RestartPolicy, body func(attempt int, n *Node) error) ([]NodeStats, error) {
	backoff := pol.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	var stats []NodeStats
	var err error
	for attempt := 0; ; attempt++ {
		a := attempt
		stats, err = Run(cfg, func(n *Node) error { return body(a, n) })
		if err == nil {
			return stats, nil
		}
		if attempt >= pol.MaxRestarts || !IsCommError(err) {
			if attempt > 0 {
				err = fmt.Errorf("after %d restart(s): %w", attempt, err)
			}
			return stats, err
		}
		time.Sleep(backoff << attempt)
	}
}

// MaxClock returns the largest virtual clock across ranks — the simulated
// wall time of the whole run.
func MaxClock(stats []NodeStats) time.Duration {
	var m time.Duration
	for _, s := range stats {
		if s.Clock > m {
			m = s.Clock
		}
	}
	return m
}
