package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"newtonadmm/internal/control"
	"newtonadmm/internal/obs"
	"newtonadmm/internal/wire"
)

// Errors returned by the batcher's admission path.
var (
	// ErrQueueFull is backpressure: the bounded admission queue is at
	// capacity and the request was rejected (never enqueued, never
	// dropped silently). Callers translate it to HTTP 429.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrClosed means the batcher was shut down.
	ErrClosed = errors.New("serve: batcher closed")
	// ErrNoModel means no model is registered to score against.
	ErrNoModel = errors.New("serve: no model loaded")
	// ErrModelShapeChanged means a hot swap changed the model's class
	// count between a request's admission and its scoring. The request
	// was valid when sent — callers should retry against the new shape
	// (the HTTP layer maps this to 503, not 4xx).
	ErrModelShapeChanged = errors.New("serve: model shape changed by hot swap; retry")
)

// RejectionError is a typed admission rejection — the 429 class with a
// machine-readable reason and an optional Retry-After hint (a token
// bucket's refill time). Its Is method matches ErrQueueFull, so every
// pre-control-plane backpressure consumer (router failover, HTTP
// status mapping) keeps treating policy rejections as the load signal
// they are.
type RejectionError struct {
	Reason     control.Reason
	RetryAfter time.Duration
}

func (e *RejectionError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("serve: admission rejected (%s, retry after %v)", e.Reason, e.RetryAfter)
	}
	return fmt.Sprintf("serve: admission rejected (%s)", e.Reason)
}

// Is reports rejection errors as ErrQueueFull for errors.Is, keeping
// the single backpressure sentinel every consumer already switches on.
func (e *RejectionError) Is(target error) bool { return target == ErrQueueFull }

// RejectionOf extracts the machine-readable rejection reason and retry
// hint from an error chain. A bare ErrQueueFull (the bounded queue's
// own backpressure) reports queue_full with no hint; a non-rejection
// error reports ok = false.
func RejectionOf(err error) (reason control.Reason, retryAfter time.Duration, ok bool) {
	var re *RejectionError
	if errors.As(err, &re) {
		return re.Reason, re.RetryAfter, true
	}
	if errors.Is(err, ErrQueueFull) {
		return control.ReasonQueueFull, 0, true
	}
	return control.ReasonNone, 0, false
}

// Scorer is the batch-scoring surface the batcher drives; *Predictor is
// the production implementation. Tests substitute fakes to exercise
// queueing behavior independent of the kernel layer.
type Scorer interface {
	Classes() int
	Features() int
	PredictDense(rows [][]float64, out []int) error
	PredictCSR(idx [][]int, val [][]float64, out []int) error
	ProbaDense(rows [][]float64, out []float64) error
	ProbaCSR(idx [][]int, val [][]float64, out []float64) error
}

// ScorerSource hands out the current scorer with a release function, so
// a batch holds one model snapshot for its whole launch while hot swaps
// proceed concurrently; *Registry is the production implementation.
type ScorerSource interface {
	Acquire() (Scorer, func(), error)
}

// BatcherConfig tunes the dynamic micro-batcher.
type BatcherConfig struct {
	// MaxBatch is the largest number of rows coalesced into one kernel
	// launch; <= 0 selects 64.
	MaxBatch int
	// MaxLinger bounds how long the first request of a batch waits for
	// stragglers before the batch launches anyway; < 0 disables
	// lingering (launch as soon as the queue is drained), 0 selects
	// 200µs.
	MaxLinger time.Duration
	// QueueDepth bounds the admission queue PER PRIORITY CLASS; <= 0
	// selects 4*MaxBatch. Per-class capacity isolation is deliberate: a
	// background flood filling its own queue cannot occupy interactive
	// slots, so interactive 429s stay a function of interactive load.
	QueueDepth int
	// SampleEvery is the observation stride shared by the server-side
	// latency histogram and trace sampling: 1 in SampleEvery requests is
	// stamped, timed per stage, and recorded into the trace ring. 0
	// selects DefaultSampleEvery (the historical 1-in-8); < 0 disables
	// sampling entirely (the effective value is then 0).
	SampleEvery int
	// Admission, when non-nil, is evaluated on every submit before a
	// queue slot is taken; rejections surface as *RejectionError (the
	// 429 class). Swappable at runtime with SetPolicy.
	Admission control.AdmissionPolicy
	// PriorityWeights is the per-class dequeue weight of the weighted
	// round-robin scheduler; an all-zero value selects
	// control.DefaultWeights (16/4/1).
	PriorityWeights [control.NumPriorities]int
}

// DefaultSampleEvery is the default latency/trace sampling stride.
const DefaultSampleEvery = 8

func (c BatcherConfig) withDefaults() BatcherConfig {
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxLinger == 0 {
		c.MaxLinger = 200 * time.Microsecond
	}
	if c.MaxLinger < 0 {
		c.MaxLinger = 0
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.MaxBatch
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = DefaultSampleEvery
	}
	if c.SampleEvery < 0 {
		c.SampleEvery = 0
	}
	if c.PriorityWeights == ([control.NumPriorities]int{}) {
		c.PriorityWeights = control.DefaultWeights
	}
	return c
}

// request is one in-flight prediction. Requests are pooled; the done
// channel is created once per pooled object and reused.
type request struct {
	// Exactly one of dense or (idx, val) is set. The slices are caller-
	// owned and only read until done is signaled (the caller blocks, so
	// they stay valid; the predictor stages its own copy).
	dense []float64
	idx   []int
	val   []float64

	// probaOut non-nil requests the full probability vector (length
	// Classes); the batcher copies the row's probabilities into it.
	probaOut []float64

	// pri is the request's service class; the zero value (Interactive)
	// is the legacy default for untagged traffic.
	pri control.Priority

	class int
	err   error
	// enq is only stamped on sampled requests (1 in SampleEvery): the
	// admission path is the serving hot path, and two clock reads plus a
	// histogram update per request are measurable at the request rates a
	// single batcher sustains. Sampling keeps /metricz honest while
	// keeping the hot path lean. deq is stamped at dequeue for the same
	// requests, bounding the queue-wait span.
	enq time.Time
	deq time.Time
	// trace collects per-stage spans for sampled requests. ownTrace
	// marks traces this batcher started (published at finish); a
	// propagated trace (scatter leg of a routed request) stays owned by
	// the submitter, which publishes it after Wait.
	trace    *obs.Trace
	ownTrace bool
	done     chan struct{}
}

// BatcherStats is a snapshot of the batcher's counters.
type BatcherStats struct {
	Submitted int64 // accepted into the queue
	Rejected  int64 // refused with ErrQueueFull
	Completed int64 // answered (including per-row errors)
	Batches   int64 // kernel batches launched
}

// Batcher coalesces concurrent single-row prediction requests into
// micro-batches scored by one fused launch — continuous batching with a
// bounded admission queue and linger-based flush, the standard serving
// discipline for amortizing per-request overhead into batched matrix
// kernels.
type Batcher struct {
	cfg    BatcherConfig
	source ScorerSource

	// queues holds one bounded admission queue per priority class; the
	// loop dequeues across them with deterministic weighted round-robin
	// (wrr), so a background flood degrades to its weight's share of
	// batch slots instead of starving interactive requests.
	queues [control.NumPriorities]chan *request
	stop   chan struct{}

	// policy is the admission policy evaluated on every submit, held in
	// an atomic pointer so SetPolicy swaps it race-free under load. A
	// nil pointer means open admission.
	policy      atomic.Pointer[policyBox]
	rejectStats control.RejectStats

	// wrr and lenFn are loop-goroutine state (lenFn is pre-bound so the
	// hot dequeue path does not allocate a method-value closure).
	wrr   *control.WRR
	lenFn func(control.Priority) int

	// closeMu guards the closed flag vs. in-flight submits: Submit holds
	// the read side while enqueueing, Close takes the write side before
	// signaling stop, so after Close returns the loop's final drain sees
	// every accepted request.
	closeMu sync.RWMutex
	closed  bool
	wg      sync.WaitGroup

	pool    sync.Pool // *request
	tickets sync.Pool // *[]Ticket: ScoreBatch's per-call scratch

	submitted  atomic.Int64
	rejected   atomic.Int64
	completed  atomic.Int64
	batches    atomic.Int64
	sampleTick atomic.Int64

	// Latency is enqueue-to-answer per request; BatchSize records rows
	// per launched batch through the same histogram machinery. The
	// Stage* histograms attribute the sampled requests' time per stage
	// (queue wait, batch linger, kernel execute) — the same boundaries
	// the trace spans record.
	Latency      *obs.Histogram
	BatchSize    *obs.Histogram
	StageQueue   *obs.Histogram
	StageLinger  *obs.Histogram
	StageExecute *obs.Histogram

	// rec is the trace ring behind /debug/tracez for this replica.
	rec *obs.Recorder

	// Batch assembly scratch (loop goroutine only; grow-only).
	batch    []*request
	dDense   [][]float64
	dReqs    []*request
	sIdx     [][]int
	sVal     [][]float64
	sReqs    []*request
	outInt   []int
	outProba []float64
}

// policyBox wraps the AdmissionPolicy interface value so it can live
// in an atomic.Pointer (lock-free policy swap under concurrent load).
type policyBox struct{ p control.AdmissionPolicy }

// NewBatcher starts the batching loop over the given scorer source.
func NewBatcher(source ScorerSource, cfg BatcherConfig) *Batcher {
	b := &Batcher{
		cfg:          cfg.withDefaults(),
		source:       source,
		stop:         make(chan struct{}),
		Latency:      obs.NewHistogram(),
		BatchSize:    obs.NewHistogram(),
		StageQueue:   obs.NewHistogram(),
		StageLinger:  obs.NewHistogram(),
		StageExecute: obs.NewHistogram(),
		rec:          obs.NewRecorder(0),
	}
	for c := range b.queues {
		b.queues[c] = make(chan *request, b.cfg.QueueDepth)
	}
	b.wrr = control.NewWRR(b.cfg.PriorityWeights)
	b.lenFn = func(c control.Priority) int { return len(b.queues[c]) }
	b.SetPolicy(b.cfg.Admission)
	b.pool.New = func() any { return &request{done: make(chan struct{}, 1)} }
	b.tickets.New = func() any { return new([]Ticket) }
	b.wg.Add(1)
	go b.loop()
	return b
}

// SetPolicy installs or swaps the admission policy evaluated on every
// submit; nil opens admission. Safe to call under concurrent load —
// in-flight submits see either the old or the new policy.
func (b *Batcher) SetPolicy(p control.AdmissionPolicy) {
	if p == nil {
		b.policy.Store(nil)
		return
	}
	b.policy.Store(&policyBox{p: p})
}

// Policy returns the installed admission policy (nil when open).
func (b *Batcher) Policy() control.AdmissionPolicy {
	if box := b.policy.Load(); box != nil {
		return box.p
	}
	return nil
}

// AdmissionStats returns the per-reason rejection counters (shared
// with the registry rows; read-only for callers).
func (b *Batcher) AdmissionStats() *control.RejectStats { return &b.rejectStats }

// QueueLen returns the number of requests waiting in one priority
// class's queue — the nadmm_priority_queue_depth gauge source.
func (b *Batcher) QueueLen(pri control.Priority) int {
	if !pri.Valid() {
		return 0
	}
	return len(b.queues[pri])
}

// Config returns the effective (defaulted) configuration.
func (b *Batcher) Config() BatcherConfig { return b.cfg }

// Recorder returns the trace ring this batcher publishes sampled
// traces into (the /debug/tracez source for the replica).
func (b *Batcher) Recorder() *obs.Recorder { return b.rec }

// Stats returns a snapshot of the batcher counters.
func (b *Batcher) Stats() BatcherStats {
	return BatcherStats{
		Submitted: b.submitted.Load(),
		Rejected:  b.rejected.Load(),
		Completed: b.completed.Load(),
		Batches:   b.batches.Load(),
	}
}

// Close shuts the batcher down: subsequent submits fail with ErrClosed,
// already-accepted requests are answered (scored or rejected with
// ErrClosed), and the loop exits. Close is idempotent and blocks until
// the loop drains.
func (b *Batcher) Close() {
	b.closeMu.Lock()
	already := b.closed
	b.closed = true
	b.closeMu.Unlock()
	if !already {
		close(b.stop)
	}
	b.wg.Wait()
}

// InFlight returns the number of accepted requests not yet answered.
func (b *Batcher) InFlight() int64 {
	return b.submitted.Load() - b.completed.Load()
}

// Drain blocks until every request accepted before the call has been
// answered (scored or failed); requests submitted after Drain starts are
// not waited for. This is the replica-side drain hook the serving
// router uses to retire a replica without dropping accepted work: stop
// routing to the replica, Drain, then close it.
func (b *Batcher) Drain() {
	target := b.submitted.Load()
	for b.completed.Load() < target {
		time.Sleep(100 * time.Microsecond)
	}
}

func (b *Batcher) getReq() *request {
	return b.pool.Get().(*request)
}

// putReq clears the request's payload references before pooling it, so
// idle pooled requests never pin callers' row or probability buffers
// (the same retention discipline clearScratch enforces on the batch
// scratch), and drains a stray completion signal so a reused request
// never sees a stale one (possible only if a caller abandoned a
// ticket).
func (b *Batcher) putReq(r *request) {
	r.dense, r.idx, r.val, r.probaOut = nil, nil, nil, nil
	r.pri = control.Interactive
	r.class, r.err = 0, nil
	r.enq, r.deq = time.Time{}, time.Time{}
	r.trace, r.ownTrace = nil, false
	select {
	case <-r.done:
	default:
	}
	b.pool.Put(r)
}

// cost prices one request for the admission policy: rows x features
// with rows = 1, where a sparse row's width is its nonzero count.
func (r *request) cost() int64 {
	if r.dense != nil {
		return int64(len(r.dense))
	}
	return int64(len(r.idx))
}

// submit enqueues r with backpressure; it never blocks. Every reject
// path is strictly no-publish: the rejection counters are bumped only
// after the request carries no observable state (no trace, no
// timestamps, no queue slot), so the pooled object the caller recycles
// is already inert — the old order recycled state a -race stress run
// could observe mid-reset.
func (b *Batcher) submit(r *request) error {
	b.closeMu.RLock()
	defer b.closeMu.RUnlock()
	if b.closed {
		return ErrClosed
	}
	if box := b.policy.Load(); box != nil {
		if d := box.p.Admit(r.cost(), r.pri); !d.Admit {
			// Policy rejection: evaluated before any stamp or queue
			// slot, so nothing to unwind.
			b.rejected.Add(1)
			b.rejectStats.Note(d.Reason)
			return &RejectionError{Reason: d.Reason, RetryAfter: d.RetryAfter}
		}
	}
	if r.trace != nil {
		// A propagated trace (the replica leg of a routed request) is
		// always timed: the originator already made the sampling call.
		r.enq = time.Now()
	} else if n := b.cfg.SampleEvery; n > 0 && b.sampleTick.Add(1)%int64(n) == 0 {
		r.enq = time.Now() // stamped before the enqueue: the loop reads it
		r.trace = b.rec.Start(r.enq)
		r.ownTrace = true
	}
	select {
	case b.queues[r.pri] <- r:
		b.submitted.Add(1)
		return nil
	default:
	}
	// Queue overflow: unwind the stamps and the trace BEFORE counting
	// the rejection, restoring the no-publish invariant.
	if r.ownTrace {
		b.rec.Discard(r.trace)
	}
	r.trace, r.ownTrace = nil, false
	r.enq = time.Time{}
	b.rejected.Add(1)
	b.rejectStats.Note(control.ReasonQueueFull)
	return ErrQueueFull
}

// Ticket is a handle for one submitted request; Wait blocks for the
// result. Tickets are single-use.
type Ticket struct {
	r *request
	b *Batcher
}

// Wait blocks until the request is answered and returns the predicted
// class. If the request asked for probabilities they have been copied
// into the submitted buffer by the time Wait returns.
func (t Ticket) Wait() (int, error) {
	<-t.r.done
	class, err := t.r.class, t.r.err
	t.b.putReq(t.r)
	return class, err
}

// SubmitDense enqueues one dense row; probaOut, when non-nil, must have
// Classes entries and receives the probability vector. A nil row is
// rejected (it would be indistinguishable from a sparse request in the
// batch partition); an explicit all-zero row is a zero-filled slice of
// Features entries, or SubmitCSR with empty indices/values.
func (b *Batcher) SubmitDense(row []float64, probaOut []float64) (Ticket, error) {
	return b.submitRow(false, row, nil, nil, probaOut, control.Interactive, nil)
}

// SubmitCSR enqueues one sparse row (strictly increasing indices).
func (b *Batcher) SubmitCSR(idx []int, val []float64, probaOut []float64) (Ticket, error) {
	return b.submitRow(true, nil, idx, val, probaOut, control.Interactive, nil)
}

// submitRow enqueues one row, dense or (when sparse) idx/val, under
// service class pri with an optional caller-owned trace (nil tr falls
// back to the batcher's own sampling). An invalid class is clamped to
// Interactive — the wire and HTTP layers validate before reaching here.
func (b *Batcher) submitRow(sparse bool, dense []float64, idx []int, val []float64, probaOut []float64, pri control.Priority, tr *obs.Trace) (Ticket, error) {
	if !sparse && dense == nil {
		return Ticket{}, errors.New("serve: nil dense row")
	}
	if !pri.Valid() {
		pri = control.Interactive
	}
	r := b.getReq()
	r.dense, r.idx, r.val = dense, idx, val
	r.probaOut = probaOut
	r.pri = pri
	r.trace = tr
	if err := b.submit(r); err != nil {
		b.putReq(r)
		return Ticket{}, err
	}
	return Ticket{r: r, b: b}, nil
}

// ScoreBatch scores every row of rows through the micro-batcher under
// service class pri: predicted classes into preds when non-nil and, when
// proba is non-nil, class probabilities into proba (rows x classes,
// row-major). Every row is submitted before any is waited on, so one
// request's rows coalesce into shared launches. A non-nil tr is a
// caller-owned trace: it rides on the first row only — one
// representative pass through the queue/linger/execute stages, so a wide
// batch cannot overflow its span array — and the batcher does not
// publish it. Every accepted row is waited for, even after a submit
// failure, so no admitted row is abandoned; the first error (a submit
// failure, else the first row that failed) is returned as "instance i:".
func (b *Batcher) ScoreBatch(rows *wire.Batch, pri control.Priority, tr *obs.Trace, preds []int, proba []float64) error {
	n := rows.Rows()
	if n == 0 {
		return nil
	}
	classes := len(proba) / n
	tp := b.tickets.Get().(*[]Ticket)
	tickets := (*tp)[:0]
	var err error
	d, s := 0, 0
	for i, sparse := range rows.Kind {
		var po []float64
		if proba != nil {
			po = proba[i*classes : (i+1)*classes]
		}
		var t Ticket
		if sparse {
			t, err = b.submitRow(true, nil, rows.Idx[s], rows.Val[s], po, pri, tr)
			s++
		} else {
			t, err = b.submitRow(false, rows.Dense[d], nil, nil, po, pri, tr)
			d++
		}
		if err != nil {
			err = fmt.Errorf("instance %d: %w", i, err)
			break
		}
		tr = nil
		tickets = append(tickets, t)
	}
	for i, t := range tickets {
		class, werr := t.Wait()
		if werr != nil && err == nil {
			err = fmt.Errorf("instance %d: %w", i, werr)
		}
		if preds != nil {
			preds[i] = class
		}
		tickets[i] = Ticket{}
	}
	*tp = tickets[:0]
	b.tickets.Put(tp)
	return err
}

// Predict scores one dense row through the micro-batcher.
func (b *Batcher) Predict(row []float64) (int, error) {
	t, err := b.SubmitDense(row, nil)
	if err != nil {
		return 0, err
	}
	return t.Wait()
}

// PredictCSR scores one sparse row through the micro-batcher.
func (b *Batcher) PredictCSR(idx []int, val []float64) (int, error) {
	t, err := b.SubmitCSR(idx, val, nil)
	if err != nil {
		return 0, err
	}
	return t.Wait()
}

// Proba scores one dense row and fills out (length Classes) with the
// class probabilities, returning the predicted class.
func (b *Batcher) Proba(row []float64, out []float64) (int, error) {
	t, err := b.SubmitDense(row, out)
	if err != nil {
		return 0, err
	}
	return t.Wait()
}

// ProbaCSR is Proba for one sparse row.
func (b *Batcher) ProbaCSR(idx []int, val []float64, out []float64) (int, error) {
	t, err := b.SubmitCSR(idx, val, out)
	if err != nil {
		return 0, err
	}
	return t.Wait()
}

// loop is the batching goroutine: collect a batch (greedy drain, then
// linger), score it, answer every request, repeat.
func (b *Batcher) loop() {
	defer b.wg.Done()
	// One reused timer; since Go 1.23 Stop and Reset discard a stale
	// expiry, so no drain is needed between linger windows.
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	for {
		// First request of the next batch: weighted pick when work is
		// already pending, else block on all three class queues. The
		// blocking select takes whichever class arrives (charged via
		// Spend), so an idle batcher never adds scheduling latency.
		first, ok := b.takeWeighted()
		if !ok {
			select {
			case first = <-b.queues[control.Interactive]:
				b.wrr.Spend(control.Interactive)
			case first = <-b.queues[control.Batch]:
				b.wrr.Spend(control.Batch)
			case first = <-b.queues[control.Background]:
				b.wrr.Spend(control.Background)
			case <-b.stop:
				b.drainReject()
				return
			}
		}
		b.noteDequeue(first)
		b.batch = append(b.batch[:0], first)
		stopping := b.fill(timer)
		b.scoreBatch(b.batch)
		b.clearScratch()
		if stopping {
			b.drainReject()
			return
		}
	}
}

// takeWeighted dequeues one pending request under the credit scheduler,
// or reports that all three class queues are empty. The loop goroutine
// is the only receiver, so a queue Pick saw as non-empty still holds
// the request when we receive from it.
func (b *Batcher) takeWeighted() (*request, bool) {
	c, ok := b.wrr.Pick(b.lenFn)
	if !ok {
		return nil, false
	}
	select {
	case r := <-b.queues[c]:
		return r, true
	default:
		// Unreachable while loop() is the sole consumer; fail soft
		// rather than block if that invariant is ever broken.
		return nil, false
	}
}

// fill grows the current batch to MaxBatch: greedy weighted drain
// first, then a linger window measured from the first request's arrival.
// Returns true when shutdown was requested mid-fill.
func (b *Batcher) fill(timer *time.Timer) bool {
	for len(b.batch) < b.cfg.MaxBatch {
		r, ok := b.takeWeighted()
		if !ok {
			break
		}
		b.noteDequeue(r)
		b.batch = append(b.batch, r)
	}
	if len(b.batch) >= b.cfg.MaxBatch || b.cfg.MaxLinger <= 0 {
		return false
	}
	// Linger from batch formation (the first dequeue), so no request
	// waits in the batcher more than ~MaxLinger before its launch
	// starts.
	timer.Reset(b.cfg.MaxLinger)
	defer timer.Stop()
	for len(b.batch) < b.cfg.MaxBatch {
		var r *request
		select {
		case r = <-b.queues[control.Interactive]:
			b.wrr.Spend(control.Interactive)
		case r = <-b.queues[control.Batch]:
			b.wrr.Spend(control.Batch)
		case r = <-b.queues[control.Background]:
			b.wrr.Spend(control.Background)
		case <-timer.C:
			return false
		case <-b.stop:
			return true
		}
		b.noteDequeue(r)
		b.batch = append(b.batch, r)
		// A linger arrival often rides a burst; drain it under the
		// scheduler so the weights, not select's coin flip, decide who
		// fills the remaining slots.
		for len(b.batch) < b.cfg.MaxBatch {
			r, ok := b.takeWeighted()
			if !ok {
				break
			}
			b.noteDequeue(r)
			b.batch = append(b.batch, r)
		}
	}
	return false
}

// noteDequeue closes a sampled request's queue-wait span the moment it
// joins the forming batch. Untraced requests pay one nil check.
func (b *Batcher) noteDequeue(r *request) {
	if r.trace == nil {
		return
	}
	r.deq = time.Now()
	wait := r.deq.Sub(r.enq)
	r.trace.AddSpan(obs.StageQueue, -1, 0, r.enq, wait)
	b.StageQueue.Observe(wait)
}

// drainReject answers every request still queued after shutdown.
func (b *Batcher) drainReject() {
	for c := range b.queues {
		for {
			select {
			case r := <-b.queues[c]:
				r.err = ErrClosed
				b.finish(r)
				continue
			default:
			}
			break
		}
	}
}

func (b *Batcher) finish(r *request) {
	if !r.enq.IsZero() { // latency-sampled request
		b.Latency.Observe(time.Since(r.enq))
	}
	if r.ownTrace {
		// The batcher started this trace, so the batcher publishes it;
		// propagated traces stay with their submitter, which finishes
		// them after Wait (the done signal below is the ownership
		// handoff back).
		b.rec.Finish(r.trace, time.Now())
		r.trace, r.ownTrace = nil, false
	}
	b.completed.Add(1)
	r.done <- struct{}{}
}

// clearScratch drops the batch-assembly scratch's pointers once a batch
// completes, so the grow-only arrays don't pin finished requests (and
// transitively their callers' row buffers) until the next batch of the
// same size happens to overwrite the slots. Only the batcher's own
// slices are touched — the request objects now belong to their waiters.
func (b *Batcher) clearScratch() {
	for i := range b.batch {
		b.batch[i] = nil
	}
	for i := range b.dReqs {
		b.dReqs[i], b.dDense[i] = nil, nil
	}
	for i := range b.sReqs {
		b.sReqs[i], b.sIdx[i], b.sVal[i] = nil, nil, nil
	}
}

// scoreBatch scores one coalesced batch: requests are partitioned into a
// dense and a CSR sub-batch (each still one launch); if any request in a
// sub-batch wants probabilities the whole sub-batch is scored through
// ProbaInto (classes via argmax, same launch), otherwise PredictInto.
func (b *Batcher) scoreBatch(batch []*request) {
	if len(batch) == 0 {
		return
	}
	b.batches.Add(1)
	b.BatchSize.ObserveValue(int64(len(batch)))

	// Launch timestamp for the sampled requests' linger and execute
	// spans; untraced batches skip both clock reads.
	var launch time.Time
	traced := false
	for _, r := range batch {
		if r.trace != nil {
			traced = true
			break
		}
	}
	if traced {
		launch = time.Now()
		for _, r := range batch {
			if r.trace != nil {
				linger := launch.Sub(r.deq)
				r.trace.AddSpan(obs.StageLinger, -1, 0, r.deq, linger)
				b.StageLinger.Observe(linger)
			}
		}
	}

	scorer, release, err := b.source.Acquire()
	if err != nil {
		for _, r := range batch {
			r.err = err
			b.finish(r)
		}
		return
	}
	defer release()

	// Partition into dense and sparse sub-batches.
	b.dDense, b.dReqs = b.dDense[:0], b.dReqs[:0]
	b.sIdx, b.sVal, b.sReqs = b.sIdx[:0], b.sVal[:0], b.sReqs[:0]
	for _, r := range batch {
		if r.dense != nil {
			b.dDense = append(b.dDense, r.dense)
			b.dReqs = append(b.dReqs, r)
		} else {
			b.sIdx = append(b.sIdx, r.idx)
			b.sVal = append(b.sVal, r.val)
			b.sReqs = append(b.sReqs, r)
		}
	}
	b.scoreSub(scorer, false, b.dReqs, launch)
	b.scoreSub(scorer, true, b.sReqs, launch)
}

// scoreSub scores one kind-homogeneous sub-batch (sparse selects the
// CSR staging, otherwise the dense staging; both are one launch). The
// kind flag instead of scorer-method closures keeps the steady-state
// path allocation-free. launch is non-zero only when the batch carries
// at least one sampled trace; it anchors the execute span.
func (b *Batcher) scoreSub(scorer Scorer, sparse bool, reqs []*request, launch time.Time) {
	n := len(reqs)
	if n == 0 {
		return
	}
	classes := scorer.Classes()
	anyProba := false
	for _, r := range reqs {
		if r.probaOut != nil {
			anyProba = true
			break
		}
	}
	var err error
	if anyProba {
		if cap(b.outProba) < n*classes {
			b.outProba = make([]float64, n*classes)
		}
		probs := b.outProba[:n*classes]
		if sparse {
			err = scorer.ProbaCSR(b.sIdx, b.sVal, probs)
		} else {
			err = scorer.ProbaDense(b.dDense, probs)
		}
		if err == nil {
			for i, r := range reqs {
				deliverProba(r, probs[i*classes:(i+1)*classes], classes)
			}
		}
	} else {
		if cap(b.outInt) < n {
			b.outInt = make([]int, n)
		}
		out := b.outInt[:n]
		if sparse {
			err = scorer.PredictCSR(b.sIdx, b.sVal, out)
		} else {
			err = scorer.PredictDense(b.dDense, out)
		}
		if err == nil {
			for i, r := range reqs {
				r.class = out[i]
			}
		}
	}
	// Execute span: launch to the end of this sub-batch's scoring.
	// Recorded before finishSub because finish publishes owned traces.
	if !launch.IsZero() {
		d := time.Since(launch)
		for _, r := range reqs {
			if r.trace != nil {
				r.trace.AddSpan(obs.StageExecute, -1, 0, launch, d)
				b.StageExecute.Observe(d)
			}
		}
	}
	b.finishSub(reqs, err)
}

// deliverProba hands one request its class and probability vector. A
// hot swap may change the model's class count between admission (when
// the caller sized probaOut) and scoring; that request fails with an
// explicit error instead of a silently truncated or padded vector —
// the retried request sees the new shape.
func deliverProba(r *request, row []float64, classes int) {
	if r.probaOut != nil && len(r.probaOut) != classes {
		r.err = fmt.Errorf("%w (now %d classes, request expected %d)", ErrModelShapeChanged, classes, len(r.probaOut))
		return
	}
	r.class = ArgmaxProba(row)
	if r.probaOut != nil {
		copy(r.probaOut, row)
	}
}

// finishSub answers a sub-batch. A staging/validation error from the
// scorer is fanned out to every request of the sub-batch after retrying
// each row individually, so one malformed row cannot fail its batchmates
// (the retry is off the steady-state path: it only runs on errors).
func (b *Batcher) finishSub(reqs []*request, err error) {
	if err == nil {
		for _, r := range reqs {
			b.finish(r)
		}
		return
	}
	if len(reqs) == 1 {
		reqs[0].err = err
		b.finish(reqs[0])
		return
	}
	scorer, release, aerr := b.source.Acquire()
	if aerr != nil {
		for _, r := range reqs {
			r.err = err
			b.finish(r)
		}
		return
	}
	defer release()
	classes := scorer.Classes()
	var out [1]int
	for _, r := range reqs {
		var rerr error
		if r.probaOut != nil && len(r.probaOut) != classes {
			rerr = fmt.Errorf("%w (now %d classes, request expected %d)", ErrModelShapeChanged, classes, len(r.probaOut))
		} else if r.dense != nil {
			if r.probaOut != nil {
				rerr = scorer.ProbaDense([][]float64{r.dense}, r.probaOut)
				if rerr == nil {
					r.class = ArgmaxProba(r.probaOut)
				}
			} else {
				rerr = scorer.PredictDense([][]float64{r.dense}, out[:])
				r.class = out[0]
			}
		} else {
			if r.probaOut != nil {
				rerr = scorer.ProbaCSR([][]int{r.idx}, [][]float64{r.val}, r.probaOut)
				if rerr == nil {
					r.class = ArgmaxProba(r.probaOut)
				}
			} else {
				rerr = scorer.PredictCSR([][]int{r.idx}, [][]float64{r.val}, out[:])
				r.class = out[0]
			}
		}
		r.err = rerr
		b.finish(r)
	}
}
