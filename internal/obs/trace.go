package obs

import (
	"sync/atomic"
	"time"
)

// Stage identifies which serving stage a span attributes time to. The
// set is closed and small on purpose: every stage below is a place a
// request can wait that the end-to-end latency histogram cannot tell
// apart.
type Stage uint8

const (
	// StageQueue is admission-queue wait: submit to dequeue.
	StageQueue Stage = iota
	// StageLinger is batch formation: dequeue to kernel launch.
	StageLinger
	// StageExecute is the batched kernel execution.
	StageExecute
	// StageScatter is one scatter-leg round trip (router to replica
	// and back). Leg is the shard-group index; Try counts sibling
	// attempts within the leg (0 = first member tried).
	StageScatter
	// StageMerge is the router's partial-logit merge.
	StageMerge
	// StageEncode is response encoding (JSON body or binary frame).
	StageEncode
	// StageDecode is the client edge's request decode: arrival to the
	// end of the JSON scan, body read included. Appended last, so the
	// values of the stages above are unchanged.
	StageDecode
)

func (s Stage) String() string {
	switch s {
	case StageQueue:
		return "queue"
	case StageLinger:
		return "linger"
	case StageExecute:
		return "execute"
	case StageScatter:
		return "scatter"
	case StageMerge:
		return "merge"
	case StageEncode:
		return "encode"
	case StageDecode:
		return "decode"
	}
	return "unknown"
}

// MaxSpans bounds the span array of one trace. A request through the
// largest supported topology records one queue + linger + execute
// triplet, one scatter span per shard group per sibling attempt, one
// merge, one encode, and one decode; overflow increments Dropped instead
// of allocating.
const MaxSpans = 25

// Span is one timed stage of a request, stored inline in the trace.
// Start is the offset from the trace's Begin time, so a rendered
// waterfall needs no absolute clocks.
type Span struct {
	Stage Stage
	Leg   int16 // scatter group index; -1 for non-scatter stages
	Try   int16 // sibling attempt within the leg; 0 otherwise
	Start time.Duration
	Dur   time.Duration
}

// Trace is the per-request span record. Ownership is strict: exactly
// one goroutine may call Finish/Discard, and concurrent span writers
// (parallel scatter legs) must all complete — e.g. via WaitGroup.Wait —
// before the owner publishes. Span slots are claimed by atomic index so
// concurrent AddSpan calls never collide.
type Trace struct {
	// ID is the 64-bit trace identity. It crosses process boundaries
	// via the NAWP trace trailer, so one sampled request yields the same ID on the router and on every
	// remote replica it touched.
	ID uint64
	// Remote marks a trace adopted from a propagated context (a
	// replica-side record of a router-originated request).
	Remote bool
	// Begin and End bound the locally observed lifetime.
	Begin time.Time
	End   time.Time

	n       atomic.Int32
	dropped atomic.Int32
	spans   [MaxSpans]Span

	rec *Recorder // owning recorder, for recycling
}

// AddSpan records one span. Safe for concurrent use by multiple
// writers; spans past MaxSpans are counted as dropped, not stored.
func (t *Trace) AddSpan(stage Stage, leg, try int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	i := t.n.Add(1) - 1
	if int(i) >= MaxSpans {
		t.dropped.Add(1)
		return
	}
	t.spans[i] = Span{
		Stage: stage,
		Leg:   int16(leg),
		Try:   int16(try),
		Start: start.Sub(t.Begin),
		Dur:   d,
	}
}

// Spans returns the recorded spans. Only the trace's exclusive owner
// (or a reader that took ownership from the recorder ring) may call it.
func (t *Trace) Spans() []Span {
	n := int(t.n.Load())
	if n > MaxSpans {
		n = MaxSpans
	}
	return t.spans[:n]
}

// Dropped reports spans lost to the MaxSpans bound.
func (t *Trace) Dropped() int { return int(t.dropped.Load()) }

// Total is the locally observed end-to-end duration.
func (t *Trace) Total() time.Duration { return t.End.Sub(t.Begin) }

// reset prepares a recycled trace for reuse. Stale span payload past
// the reset count is never read because Spans slices by n.
func (t *Trace) reset() {
	t.ID = 0
	t.Remote = false
	t.Begin = time.Time{}
	t.End = time.Time{}
	t.n.Store(0)
	t.dropped.Store(0)
}
