package obs

import (
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Recorder is the lock-free ring buffer behind /debug/tracez: finished
// traces are published into a fixed ring of recent exemplars plus one
// slowest-since-last-scrape slot, and displaced traces recycle through
// a pool so steady-state publishing allocates nothing.
//
// Ownership protocol (what makes this race-free without locks): a trace
// is owned by exactly one party at a time — the request that started
// it, then (after Finish) the ring slot it was swapped into, then
// whoever atomically swaps it out (a later Finish displacing it, or a
// Snapshot reader). Every transfer is an atomic.Pointer Swap, so no two
// parties ever touch a trace's fields concurrently.
type Recorder struct {
	ring []atomic.Pointer[Trace]
	pos  atomic.Uint64

	slow    atomic.Pointer[Trace]
	slowDur atomic.Int64 // threshold; reset to 0 on TakeSlowest

	finished atomic.Uint64
	pool     sync.Pool
}

// DefaultRingSize is the recent-trace window when NewRecorder is given
// a non-positive size.
const DefaultRingSize = 64

// NewRecorder returns a recorder keeping the last size finished traces.
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultRingSize
	}
	r := &Recorder{ring: make([]atomic.Pointer[Trace], size)}
	r.pool.New = func() any { return new(Trace) }
	return r
}

// Start begins a locally originated trace with a fresh random ID.
func (r *Recorder) Start(at time.Time) *Trace {
	id := rand.Uint64()
	for id == 0 {
		id = rand.Uint64()
	}
	return r.start(id, false, at)
}

// StartRemote begins a trace adopted from a propagated context: the ID
// arrived over the wire (the NAWP trace trailer), so the spans recorded
// here stitch to the originator's trace by ID.
func (r *Recorder) StartRemote(id uint64, at time.Time) *Trace {
	return r.start(id, true, at)
}

func (r *Recorder) start(id uint64, remote bool, at time.Time) *Trace {
	t := r.pool.Get().(*Trace)
	t.ID = id
	t.Remote = remote
	t.Begin = at
	t.rec = r
	return t
}

// Finish stamps the end time and publishes the trace; the caller's
// ownership ends here. The slowest trace since the last TakeSlowest
// goes to the slow slot, everything else to the recent ring.
func (r *Recorder) Finish(t *Trace, end time.Time) {
	if t == nil {
		return
	}
	t.End = end
	r.finished.Add(1)
	d := int64(t.Total())
	for {
		cur := r.slowDur.Load()
		if d <= cur {
			break
		}
		if r.slowDur.CompareAndSwap(cur, d) {
			if old := r.slow.Swap(t); old != nil {
				r.recycle(old)
			}
			return
		}
	}
	i := (r.pos.Add(1) - 1) % uint64(len(r.ring))
	if old := r.ring[i].Swap(t); old != nil {
		r.recycle(old)
	}
}

// Discard abandons a started trace without publishing it (error paths).
func (r *Recorder) Discard(t *Trace) {
	if t != nil {
		r.recycle(t)
	}
}

func (r *Recorder) recycle(t *Trace) {
	t.reset()
	r.pool.Put(t)
}

// Finished reports the number of traces published so far.
func (r *Recorder) Finished() uint64 { return r.finished.Load() }

// TraceView is an owned copy of a published trace, safe to hold after
// the underlying trace has been recycled.
type TraceView struct {
	ID      uint64
	Remote  bool
	Begin   time.Time
	Total   time.Duration
	Dropped int
	Spans   []Span
}

func viewOf(t *Trace) TraceView {
	spans := t.Spans()
	v := TraceView{
		ID:      t.ID,
		Remote:  t.Remote,
		Begin:   t.Begin,
		Total:   t.Total(),
		Dropped: t.Dropped(),
		Spans:   make([]Span, len(spans)),
	}
	copy(v.Spans, spans)
	sort.SliceStable(v.Spans, func(i, j int) bool { return v.Spans[i].Start < v.Spans[j].Start })
	return v
}

// Snapshot copies the recent ring, newest first. Traces are put back
// after copying when possible, so repeated scrapes keep seeing them.
// This is the cold path — it allocates freely.
func (r *Recorder) Snapshot() []TraceView {
	out := make([]TraceView, 0, len(r.ring))
	for i := range r.ring {
		t := r.ring[i].Swap(nil)
		if t == nil {
			continue
		}
		out = append(out, viewOf(t))
		if !r.ring[i].CompareAndSwap(nil, t) {
			r.recycle(t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Begin.After(out[j].Begin) })
	return out
}

// TakeSlowest consumes the slowest trace observed since the previous
// call (the "window" resets on read). Second result is false when no
// trace finished in the window.
func (r *Recorder) TakeSlowest() (TraceView, bool) {
	t := r.slow.Swap(nil)
	r.slowDur.Store(0)
	if t == nil {
		return TraceView{}, false
	}
	v := viewOf(t)
	r.recycle(t)
	return v, true
}

// PeekSlowest reports the slowest trace without consuming it or
// resetting the window.
func (r *Recorder) PeekSlowest() (TraceView, bool) {
	t := r.slow.Swap(nil)
	if t == nil {
		return TraceView{}, false
	}
	v := viewOf(t)
	if !r.slow.CompareAndSwap(nil, t) {
		r.recycle(t)
	}
	return v, true
}
