package control

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"newtonadmm/internal/obs"
)

// Priority is a request's service class. The zero value (Interactive)
// is the default for untagged traffic, so legacy clients behave exactly
// as before priorities existed.
type Priority uint8

const (
	// Interactive is latency-sensitive user-facing traffic; it gets the
	// largest dequeue weight and drains the admission budget to zero
	// before being refused.
	Interactive Priority = iota
	// Batch is throughput-oriented bulk work (offline scoring, backfill).
	Batch
	// Background is best-effort traffic: first to be rejected under
	// admission pressure, smallest dequeue weight.
	Background

	// NumPriorities is the number of service classes.
	NumPriorities = 3
)

var priorityNames = [NumPriorities]string{"interactive", "batch", "background"}

func (p Priority) String() string {
	if p < NumPriorities {
		return priorityNames[p]
	}
	return fmt.Sprintf("priority(%d)", uint8(p))
}

// Valid reports whether p names a defined class.
func (p Priority) Valid() bool { return p < NumPriorities }

// ParsePriority maps the wire spelling (the X-Nadmm-Priority header
// value) to a class. The empty string is Interactive: unset means the
// legacy default, not an error.
func ParsePriority(s string) (Priority, error) {
	switch s {
	case "", "interactive":
		return Interactive, nil
	case "batch":
		return Batch, nil
	case "background":
		return Background, nil
	}
	return Interactive, fmt.Errorf("control: unknown priority %q (want interactive, batch, or background)", s)
}

// Reason is the machine-readable cause of an admission rejection,
// carried on both planes (a JSON field and a wire error detail code)
// so clients can tell backpressure kinds apart.
type Reason uint8

const (
	ReasonNone Reason = iota
	// ReasonQueueFull: the bounded admission queue was at capacity.
	ReasonQueueFull
	// ReasonRateLimited: a TokenBucket refused the request.
	ReasonRateLimited
	// ReasonCostRejected: a cost-aware policy refused the request's
	// rows x features price.
	ReasonCostRejected

	numReasons = 4
)

var reasonNames = [numReasons]string{"none", "queue_full", "rate_limited", "cost_rejected"}

func (r Reason) String() string {
	if r < numReasons {
		return reasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// Decision is a policy's verdict on one request.
type Decision struct {
	Admit bool
	// Reason is set on rejections.
	Reason Reason
	// RetryAfter, when positive, hints how long until the policy would
	// admit an identical request (a token bucket's refill time). Zero
	// means no estimate.
	RetryAfter time.Duration
}

// Admitted is the positive decision.
var Admitted = Decision{Admit: true}

// AdmissionPolicy decides, before any queue slot or device time is
// spent, whether a request enters the system. Implementations must be
// safe for concurrent Admit calls: the batcher evaluates the policy on
// every submit and the router on every scatter.
//
// cost is the request's price in the policy's own unit — the serving
// layers pass rows x features, so a policy that ignores size simply
// ignores it. pri is the request's service class.
type AdmissionPolicy interface {
	Name() string
	Admit(cost int64, pri Priority) Decision
}

// AlwaysAdmit is the default policy: every request is admitted and the
// bounded queue remains the only backpressure.
type AlwaysAdmit struct{}

// Name implements AdmissionPolicy.
func (AlwaysAdmit) Name() string { return "always" }

// Admit implements AdmissionPolicy.
func (AlwaysAdmit) Admit(int64, Priority) Decision { return Admitted }

// reserveFrac is the fraction of the bucket's burst that must remain
// AFTER admitting a request of the given class. Interactive drains the
// bucket to zero; batch keeps a quarter in reserve; background keeps
// half. Under sustained overload the bucket hovers near empty, so
// background and batch are deterministically refused first and
// interactive absorbs none of the rejections as long as its own demand
// stays under the refill rate — the starvation bound the priority
// tests pin.
var reserveFrac = [NumPriorities]float64{0, 0.25, 0.5}

// TokenBucket is the standard refill-rate limiter with priority
// reserves. Two pricings share the implementation: NewTokenBucket
// charges one token per request (reason rate_limited), NewCostPolicy
// charges the request's cost — rows x features — per request (reason
// cost_rejected).
type TokenBucket struct {
	name    string
	rate    float64 // tokens per second
	burst   float64
	reason  Reason
	perCost bool // charge cost tokens instead of 1

	mu     sync.Mutex
	tokens float64
	last   time.Time
}

// NewTokenBucket returns a request-rate policy admitting rate requests
// per second with bursts up to burst; burst <= 0 selects max(rate, 1).
func NewTokenBucket(rate float64, burst int) *TokenBucket {
	return newBucket("token-bucket", ReasonRateLimited, false, rate, float64(burst))
}

// NewCostPolicy returns the cost-aware policy: a bucket refilled at
// rate cost-units (row-feature products) per second, each request
// charged its own rows x features. burst <= 0 selects max(rate, 1).
func NewCostPolicy(rate float64, burst int64) *TokenBucket {
	return newBucket("cost", ReasonCostRejected, true, rate, float64(burst))
}

func newBucket(name string, reason Reason, perCost bool, rate, burst float64) *TokenBucket {
	if rate <= 0 {
		rate = 1
	}
	if burst <= 0 {
		burst = rate
		if burst < 1 {
			burst = 1
		}
	}
	return &TokenBucket{
		name: name, rate: rate, burst: burst, reason: reason, perCost: perCost,
		tokens: burst, last: time.Now(),
	}
}

// Name implements AdmissionPolicy.
func (t *TokenBucket) Name() string { return t.name }

// Admit implements AdmissionPolicy. Rejections carry the time until
// the bucket refills enough to admit an identical request.
func (t *TokenBucket) Admit(cost int64, pri Priority) Decision {
	need := 1.0
	if t.perCost {
		need = float64(cost)
		if need < 1 {
			need = 1
		}
	}
	floor := 0.0
	if pri.Valid() {
		floor = t.burst * reserveFrac[pri]
	} else {
		floor = t.burst * reserveFrac[Background]
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	t.tokens += now.Sub(t.last).Seconds() * t.rate
	if t.tokens > t.burst {
		t.tokens = t.burst
	}
	t.last = now
	if t.tokens-need >= floor {
		t.tokens -= need
		return Admitted
	}
	deficit := need + floor - t.tokens
	return Decision{
		Reason:     t.reason,
		RetryAfter: time.Duration(deficit / t.rate * float64(time.Second)),
	}
}

// Gate is the one admission seam of both serving tiers: the batcher
// evaluates it on every submit, the router on every scatter. It holds
// the installed policy behind an atomic pointer, so Set swaps it under
// load (in-flight requests finish against the policy that admitted
// them), and counts every rejection by reason. The zero value is an
// open gate.
type Gate struct {
	policy atomic.Pointer[policyBox]
	stats  RejectStats
}

// policyBox wraps the AdmissionPolicy interface value for atomic
// storage (the two-word interface cannot be swapped atomically).
type policyBox struct{ p AdmissionPolicy }

// Set installs (or, with nil, removes) the policy.
func (g *Gate) Set(p AdmissionPolicy) {
	if p == nil {
		g.policy.Store(nil)
		return
	}
	g.policy.Store(&policyBox{p: p})
}

// Policy returns the installed policy, or nil when the gate is open.
func (g *Gate) Policy() AdmissionPolicy {
	if box := g.policy.Load(); box != nil {
		return box.p
	}
	return nil
}

// Stats returns the gate's per-reason rejection counters; a seam that
// rejects for its own reasons (the batcher's full queue) notes them
// here too.
func (g *Gate) Stats() *RejectStats { return &g.stats }

// Admit evaluates the installed policy at cost for a request of class
// pri and counts a rejection under its reason. An open gate admits.
func (g *Gate) Admit(cost int64, pri Priority) Decision {
	box := g.policy.Load()
	if box == nil {
		return Admitted
	}
	d := box.p.Admit(cost, pri)
	if !d.Admit {
		g.stats.Note(d.Reason)
	}
	return d
}

// Register adds the gate's /metricz rows to o:
// nadmm_admission_rejected_total{reason} and nadmm_admission_active.
// unit names what the tier counts (instances or client requests).
func (g *Gate) Register(o *obs.Registry, unit string) {
	for _, reason := range []Reason{ReasonQueueFull, ReasonRateLimited, ReasonCostRejected} {
		o.CounterFunc("nadmm_admission_rejected_total", obs.Label("reason", reason.String()),
			unit+" rejected by admission control, by machine-readable reason",
			func() uint64 { return g.stats.Count(reason) })
	}
	o.GaugeFunc("nadmm_admission_active", "", "1 when an admission policy is installed",
		func() float64 {
			if g.Policy() != nil {
				return 1
			}
			return 0
		})
}

// RejectStats counts rejections by reason with one atomic per reason;
// each Gate keeps one and renders it as
// nadmm_admission_rejected_total{reason}.
type RejectStats struct {
	counts [numReasons]atomic.Uint64
}

// Note records one rejection.
func (s *RejectStats) Note(r Reason) {
	if r >= numReasons {
		r = ReasonQueueFull
	}
	s.counts[r].Add(1)
}

// Count returns the rejections recorded for one reason.
func (s *RejectStats) Count(r Reason) uint64 {
	if r >= numReasons {
		return 0
	}
	return s.counts[r].Load()
}

// Total returns all recorded rejections.
func (s *RejectStats) Total() uint64 {
	var n uint64
	for i := range s.counts {
		n += s.counts[i].Load()
	}
	return n
}
