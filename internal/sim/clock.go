package sim

import (
	"container/heap"
	"time"
)

// Epoch is the fixed wall-time origin of every simulation: virtual
// time t maps to Epoch+t. A fixed origin (rather than time.Now at
// construction) keeps every timestamp handed to real policy code — the
// autoscaler's Evaluate, the token bucket's refill clock — a pure
// function of virtual time.
var Epoch = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

// event is one scheduled callback. seq breaks same-instant ties in
// insertion order, so simultaneous events run deterministically.
type event struct {
	at  time.Duration
	seq uint64
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Clock is the shared virtual clock plus its event queue. It is owned
// by the single goroutine running the simulation; events run inline on
// that goroutine, so everything an event touches is single-threaded.
type Clock struct {
	now  time.Duration
	seq  uint64
	heap eventHeap
}

// NewClock returns a clock at virtual time zero with no events.
func NewClock() *Clock { return &Clock{} }

// VNow returns the current virtual time as an offset from Epoch.
func (c *Clock) VNow() time.Duration { return c.now }

// Now returns the current virtual instant as a wall-typed time — the
// value handed to real policy code expecting a time.Time.
func (c *Clock) Now() time.Time { return Epoch.Add(c.now) }

// At schedules fn at virtual time t (clamped to now: the past cannot
// be scheduled, only the present).
func (c *Clock) At(t time.Duration, fn func()) {
	if t < c.now {
		t = c.now
	}
	c.seq++
	heap.Push(&c.heap, event{at: t, seq: c.seq, fn: fn})
}

// After schedules fn d from now.
func (c *Clock) After(d time.Duration, fn func()) { c.At(c.now+d, fn) }

// Run processes events in (time, seq) order until the queue is empty.
// Event handlers schedule further events; the loop ends when the
// simulation has nothing left to do.
func (c *Clock) Run() {
	for len(c.heap) > 0 {
		e := heap.Pop(&c.heap).(event)
		c.now = e.at
		e.fn()
	}
}

// Pending returns the number of scheduled events (tests).
func (c *Clock) Pending() int { return len(c.heap) }
