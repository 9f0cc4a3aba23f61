package router

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"newtonadmm/internal/control"
	"newtonadmm/internal/loss"
	"newtonadmm/internal/obs"
	"newtonadmm/internal/serve"
)

// Options tunes the router.
type Options struct {
	// HealthEvery is the health-probe interval; 0 selects 250ms,
	// negative disables the monitor (data-plane errors still mark
	// replicas down).
	HealthEvery time.Duration
	// FailAfter is the consecutive probe/request failures that mark a
	// replica down; <= 0 selects 3.
	FailAfter int
	// SkewRetries bounds how often a request is rescored when a
	// mid-rollout hot swap makes shard versions diverge; <= 0 selects 2.
	SkewRetries int
	// SampleEvery is the observability sampling period shared by the
	// latency histograms' request stamps and trace recording: StartTrace
	// returns a live trace for one request in every SampleEvery. 0
	// selects serve.DefaultSampleEvery (8); negative disables sampling.
	SampleEvery int
}

func (o Options) withDefaults() Options {
	if o.HealthEvery == 0 {
		o.HealthEvery = 250 * time.Millisecond
	}
	if o.FailAfter <= 0 {
		o.FailAfter = 3
	}
	if o.SkewRetries <= 0 {
		o.SkewRetries = 2
	}
	if o.SampleEvery == 0 {
		o.SampleEvery = serve.DefaultSampleEvery
	}
	if o.SampleEvery < 0 {
		o.SampleEvery = 0 // disabled
	}
	return o
}

// Stats is the router-level counter snapshot.
type Stats struct {
	Requests  int64
	Failovers int64
	SkewRetry int64
	Replicas  []ReplicaStats
}

// Router scatters prediction requests over a replica pool and gathers
// the results. Safe for concurrent use.
type Router struct {
	opts Options
	pool *Pool

	classes  int // full model class count C
	features int

	// swapMu orders coordinated hot swaps against in-flight scatters: Reload holds the write side while the fleet swaps, so a
	// scatter never straddles a multi-replica rollout (version checking
	// on the partials is the belt to this suspender — replicas reached
	// directly over HTTP can still swap out from under the router).
	swapMu sync.RWMutex

	requests  atomic.Int64
	failovers atomic.Int64
	skewRetry atomic.Int64

	// gate is the router's admission seam (DESIGN.md "Control plane"):
	// evaluated once per client request at scatter time, pricing the
	// whole batch (rows x features) before any replica is touched.
	gate control.Gate

	scratch sync.Pool // *[]float64 merge buffers

	// Observability (DESIGN.md "Observability"): StageScatter observes
	// every scatter-leg round trip (all attempts, all groups),
	// StageMerge the router-side gather+merge of a request.
	// rec records sampled traces; sampleTick drives StartTrace's 1-in-N
	// admission.
	StageScatter *obs.Histogram
	StageMerge   *obs.Histogram
	rec          *obs.Recorder
	sampleTick   atomic.Int64

	// Zero-alloc scatter plumbing: states are pooled per-request fan-out
	// descriptors with grow-only scratch; legs feeds persistent leg
	// workers, grown on demand, so steady-state scatters spawn no
	// goroutines and allocate nothing.
	scatterStates sync.Pool // *scatterState
	legs          chan *scatterJob
	legStop       chan struct{}
	closeOnce     sync.Once
}

// New builds a router over the given backends. Every backend must be
// reachable at construction, and together they must form an R×S grid
// whose shard groups tile the full model's explicit class rows exactly:
// backends reporting the same shard range are siblings of one group,
// and R whole-model copies form a single S=1 group. In a multi-zone
// fleet, every multi-member group must spread across zones.
func New(backends []Backend, opts Options) (*Router, error) {
	if len(backends) == 0 {
		return nil, errors.New("router: need at least one backend")
	}
	opts = opts.withDefaults()
	metas := make([]serve.ModelMeta, len(backends))
	for i, b := range backends {
		m, err := b.Meta()
		if err != nil {
			return nil, fmt.Errorf("router: probing replica %d: %w", i, err)
		}
		metas[i] = m
	}
	r := &Router{
		opts:         opts,
		StageScatter: obs.NewHistogram(),
		StageMerge:   obs.NewHistogram(),
		rec:          obs.NewRecorder(0),
		legs:         make(chan *scatterJob),
		legStop:      make(chan struct{}),
	}
	plan, err := r.checkFleet(metas, nil)
	if err != nil {
		return nil, err
	}
	r.classes, r.features = metas[0].Normalized().TotalClasses, metas[0].Features
	r.pool = newPool(backends, metas)
	r.pool.setGroups(plan)
	if opts.HealthEvery > 0 {
		r.pool.startHealth(opts.HealthEvery, opts.FailAfter)
	}
	return r, nil
}

// SetAdmission installs (or, with nil, removes) the router-side
// admission policy. Safe under load: in-flight requests finish against
// the policy they were admitted by.
func (r *Router) SetAdmission(p control.AdmissionPolicy) { r.gate.Set(p) }

// Admission returns the installed policy, or nil.
func (r *Router) Admission() control.AdmissionPolicy { return r.gate.Policy() }

// AdmissionStats exposes the router's per-reason rejection counters.
func (r *Router) AdmissionStats() *control.RejectStats { return r.gate.Stats() }

// admit evaluates the installed policy against the batch, pricing it at
// rows x features. A rejection is returned as a typed RejectionError
// (429 with reason + retry-after on both serving planes).
func (r *Router) admit(b *Batch) error {
	d := r.gate.Admit(int64(b.Rows())*int64(r.features), b.Priority)
	if d.Admit {
		return nil
	}
	return &serve.RejectionError{Reason: d.Reason, RetryAfter: d.RetryAfter}
}

// Classes returns the full model's class count.
func (r *Router) Classes() int { return r.classes }

// Features returns the model's feature dimension.
func (r *Router) Features() int { return r.features }

// Pool returns the replica pool (drain/undrain, stats).
func (r *Router) Pool() *Pool { return r.pool }

// Version returns the newest model version any replica reports.
func (r *Router) Version() int64 {
	var v int64
	for _, rep := range r.pool.Replicas() {
		if mv := rep.Meta().Version; mv > v {
			v = mv
		}
	}
	return v
}

// Stats snapshots router and per-replica counters.
func (r *Router) Stats() Stats {
	return Stats{
		Requests:  r.requests.Load(),
		Failovers: r.failovers.Load(),
		SkewRetry: r.skewRetry.Load(),
		Replicas:  r.pool.Stats(),
	}
}

// Recorder returns the router's trace recorder (the /debug/tracez
// surface and the bench's slowest-request breakdown read it).
func (r *Router) Recorder() *obs.Recorder { return r.rec }

// StartTrace applies the 1-in-SampleEvery sampling decision and, when
// this request is sampled, starts a trace rooted at the router. The
// caller attaches it to the request's Batch (so scatter legs and the
// merge record spans into it) and must pass it to FinishTrace when the
// request completes. Returns nil — attach and finish nothing — for
// unsampled requests or when sampling is disabled.
func (r *Router) StartTrace(at time.Time) *obs.Trace {
	n := r.opts.SampleEvery
	if n <= 0 || r.sampleTick.Add(1)%int64(n) != 0 {
		return nil
	}
	return r.rec.Start(at)
}

// FinishTrace publishes a trace started by StartTrace to the recorder.
// Nil-safe, so callers can finish unconditionally.
func (r *Router) FinishTrace(t *obs.Trace, end time.Time) {
	if t == nil {
		return
	}
	r.rec.Finish(t, end)
}

// Close stops the health monitor, reaps the leg workers, and closes
// every backend.
func (r *Router) Close() {
	r.closeOnce.Do(func() { close(r.legStop) })
	r.pool.Close()
}

// Predict scores the batch and writes the predicted classes into
// out[:b.Rows()].
func (r *Router) Predict(b *Batch, out []int) error {
	if len(out) < b.Rows() {
		return fmt.Errorf("router: output buffer has %d slots for %d rows", len(out), b.Rows())
	}
	return r.score(b, out, nil)
}

// Proba scores the batch with class probabilities: out is rows x Classes
// row-major (reference class last), and the predicted classes go into
// classOut when non-nil.
func (r *Router) Proba(b *Batch, out []float64, classOut []int) error {
	n := b.Rows() * r.classes
	if len(out) < n {
		return fmt.Errorf("router: proba buffer has %d entries for %d rows x %d classes", len(out), b.Rows(), r.classes)
	}
	// Pass an exact-size view: backends derive the class stride from the
	// buffer, and an oversized caller buffer must not skew it.
	return r.score(b, classOut, out[:n])
}

// score admits a non-empty batch and scores it: predicted classes into
// preds and probabilities into proba, each when non-nil.
func (r *Router) score(b *Batch, preds []int, proba []float64) error {
	if b.Rows() == 0 {
		return nil
	}
	if err := r.admit(b); err != nil {
		return err
	}
	r.requests.Add(1)
	return r.classScore(b, preds, proba)
}

// errNoMember reports that tryMembers reached no member: its order was
// empty, or the last member it tried had just left service. The leg
// turns it into ErrShardUnavailable.
var errNoMember = errors.New("router: no available member")

// memberQueueBound is the most requests the router keeps in flight on
// one member. Members run no batcher and a member's predictor runs one
// launch at a time, so requests past it would queue without limit; the
// bound turns that overload into serve.ErrQueueFull (HTTP 429) once
// every sibling of a group is at it. It equals a batcher's default per-class queue
// depth (4 × MaxBatch 64).
const memberQueueBound = 256

// tryMembers is the one member-attempt loop: a scatter leg calls it on
// its group's members, and it calls call on the members of order in
// turn, first choice first, and returns the version of the first
// success (that member's done count bumped, its failure streak
// cleared). Every attempt holds the member's in-flight count, counts a
// failover unless it is the first choice, and records its round trip in
// the member's latency, the scatter stage and, when the request is
// sampled, a scatter-leg span (Leg = leg, the group ID; Try = attempt).
// A member already holding memberQueueBound requests is skipped as
// backpressure without an attempt. Backpressure
// (serve.ErrQueueFull) and availability errors move on to the next
// member, transport errors also feed the health signal, and any other
// error is request-shaped and returned at once. call must not retain
// its argument, so the caller's closure stays on the stack.
func (r *Router) tryMembers(b *Batch, order []*Replica, leg int, call func(Backend) (int64, error)) (int64, error) {
	lastErr := errNoMember
	for k, rep := range order {
		n := rep.inflight.Add(1)
		if !rep.available() {
			// Lost a race with Drain: it saw our increment or we see its
			// state change — either way the member takes no new work.
			rep.inflight.Add(-1)
			lastErr = errNoMember
			continue
		}
		if n > memberQueueBound {
			rep.inflight.Add(-1)
			rep.rejected.Add(1)
			lastErr = serve.ErrQueueFull
			continue
		}
		if k > 0 {
			r.failovers.Add(1)
		}
		t0 := time.Now()
		v, err := call(rep.backend)
		d := time.Since(t0)
		rep.Latency.Observe(d)
		r.StageScatter.Observe(d)
		b.Trace.AddSpan(obs.StageScatter, leg, k, t0, d)
		rep.inflight.Add(-1)
		if err == nil {
			rep.done.Add(1)
			rep.fails.Store(0) // a served request is proof of life
			return v, nil
		}
		switch {
		case errors.Is(err, serve.ErrQueueFull):
			// Backpressure is a load signal, not a failure signal: another
			// member may have headroom.
			rep.rejected.Add(1)
		case errors.Is(err, ErrReplicaUnreachable):
			// Only transport-level failures feed the health signal: a
			// client's malformed row must never evict a replica.
			rep.errs.Add(1)
			r.pool.noteRequestError(rep, r.opts.FailAfter)
		case errors.Is(err, serve.ErrNoModel), errors.Is(err, serve.ErrClosed),
			errors.Is(err, serve.ErrModelShapeChanged):
			// Member-availability problems: another member may hold a
			// usable snapshot, so keep failing over.
			rep.errs.Add(1)
		default:
			// Request-shaped (400-class) errors are deterministic: every
			// member would reject the same batch, so re-scoring it around
			// the fleet only multiplies the cost of a bad request.
			rep.errs.Add(1)
			return 0, err
		}
		lastErr = err
	}
	return 0, lastErr
}

// classScore is the router's one data plane: scatter the batch to every
// shard group, gather partial logits into the full score matrix, apply
// the single-node merge kernels. Version skew from a concurrent hot swap
// triggers a bounded rescore.
func (r *Router) classScore(b *Batch, classOut []int, probaOut []float64) error {
	rows := b.Rows()
	m := r.classes - 1
	buf := r.getScratch(rows * m)
	defer r.putScratch(buf)
	scores := (*buf)[:rows*m]

	var err error
	for attempt := 0; ; attempt++ {
		err = r.scatterOnce(b, scores)
		if err == nil || !errors.Is(err, ErrVersionSkew) || attempt >= r.opts.SkewRetries {
			break
		}
		r.skewRetry.Add(1)
		time.Sleep(time.Millisecond)
	}
	if err != nil {
		return err
	}
	mergeStart := time.Now()
	if probaOut != nil {
		loss.ProbaFromScores(scores, rows, r.classes, probaOut[:rows*r.classes])
	}
	if classOut != nil {
		loss.PredictFromScores(scores, rows, r.classes, classOut[:rows])
	}
	d := time.Since(mergeStart)
	r.StageMerge.Observe(d)
	b.Trace.AddSpan(obs.StageMerge, -1, 0, mergeStart, d)
	return nil
}

// scatterJob is one shard group's leg of a fan-out: the request inputs,
// the leg's grow-only scratch (failover order, partial tile), and its
// outputs. Jobs live inside a pooled scatterState and are reused, so a
// steady-state scatter allocates nothing.
type scatterJob struct {
	r      *Router
	g      *Group
	b      *Batch
	scores []float64
	wg     *sync.WaitGroup

	order []*Replica // failover-order scratch
	part  []float64  // partial-tile scratch

	version int64
	err     error
}

func (j *scatterJob) run() {
	j.version, j.err = j.r.scatterGroup(j)
	j.wg.Done()
}

// scatterState is a pooled per-request fan-out descriptor: one job per
// shard group plus the barrier that gathers them.
type scatterState struct {
	wg   sync.WaitGroup
	jobs []*scatterJob // grow-only; the jobs themselves are reused
}

func (r *Router) getScatterState(n int) *scatterState {
	st, ok := r.scatterStates.Get().(*scatterState)
	if !ok {
		st = new(scatterState)
	}
	for len(st.jobs) < n {
		st.jobs = append(st.jobs, new(scatterJob))
	}
	return st
}

// dispatch hands the job to an idle persistent leg worker, growing the
// worker set when none is free — the only goroutine spawn on the
// scatter path, and only while the worker fleet is still warming up.
func (r *Router) dispatch(j *scatterJob) {
	select {
	case r.legs <- j:
	default:
		go r.legWorker(j)
	}
}

// legWorker runs its seed job, then serves further legs until the
// router closes.
func (r *Router) legWorker(seed *scatterJob) {
	seed.run()
	for {
		select {
		case <-r.legStop:
			return
		case j := <-r.legs:
			j.run()
		}
	}
}

// scatterOnce fans the batch out to all shard groups once and merges
// the partial columns into scores (rows x classes-1). Each group leg
// picks a member and fails over to its siblings; a leg fails only when
// every available member of its group has failed or none is available.
// All groups must answer with the same model version.
func (r *Router) scatterOnce(b *Batch, scores []float64) error {
	r.swapMu.RLock()
	defer r.swapMu.RUnlock()
	groups := r.pool.Groups()
	st := r.getScatterState(len(groups))
	st.wg.Add(len(groups))
	for gi, g := range groups {
		j := st.jobs[gi]
		j.r, j.g, j.b, j.scores, j.wg = r, g, b, scores, &st.wg
		r.dispatch(j)
	}
	st.wg.Wait()
	var err error
	for gi := range groups {
		if e := st.jobs[gi].err; e != nil {
			err = fmt.Errorf("router: shard group %d: %w", gi, e)
			break
		}
	}
	if err == nil {
		v0 := st.jobs[0].version
		for gi := 1; gi < len(groups); gi++ {
			if v := st.jobs[gi].version; v != v0 {
				err = fmt.Errorf("%w (group 0 at v%d, group %d at v%d)", ErrVersionSkew, v0, gi, v)
				break
			}
		}
	}
	// Drop request references before pooling so an idle state pins no
	// batch or score buffer (the grow-only scratch stays).
	for gi := range groups {
		j := st.jobs[gi]
		j.g, j.b, j.scores, j.wg, j.err = nil, nil, nil, nil, nil
	}
	r.scatterStates.Put(st)
	return err
}

// scatterGroup scores one shard group's partial tile. The member is
// picked by power-of-two-choices least-loaded; backpressure, transport
// and availability failures retry on the group's other available
// members, each tried at most once, so a mid-scatter member death is
// absorbed inside the group and never surfaces to the client while a
// sibling lives. The
// successful attempt writes the whole tile, so the buffer is safely
// reused across attempts. Returns the snapshot version the tile was
// scored against. Scratch (failover order, partial tile) lives on the
// pooled job; spans record Leg = group ID.
func (r *Router) scatterGroup(j *scatterJob) (int64, error) {
	g, b, scores := j.g, j.b, j.scores
	rows := b.Rows()
	m := r.classes - 1
	w := g.Range.Width()
	j.order = r.pool.failoverOrderInto(g.members, j.order)
	if cap(j.part) < rows*w {
		j.part = make([]float64, rows*w)
	}
	part := j.part[:rows*w]
	v, err := r.tryMembers(b, j.order, g.ID, func(be Backend) (int64, error) { return be.PartialScores(b, w, part) })
	if err == errNoMember {
		return 0, fmt.Errorf("%w: group [%d,%d) has no available member", ErrShardUnavailable, g.Range.Low, g.Range.High)
	}
	if err != nil {
		return 0, err
	}
	// Disjoint column ranges per group: concurrent writers never overlap.
	for row := 0; row < rows; row++ {
		copy(scores[row*m+g.Range.Low:row*m+g.Range.High], part[row*w:(row+1)*w])
	}
	return v, nil
}

// Reload hot-swaps every replica's checkpoint, holding the swap lock so
// no scatter straddles the rollout, then revalidates the
// fleet against the router's construction-time plan: a checkpoint with
// a different shape would leave the plan stale (and, unvalidated, merge
// partials at wrong offsets), so a shape-changing reload is reported as
// an error — the replicas hold the new model, and the router must be
// restarted to serve it. Returns the newest version deployed.
func (r *Router) Reload() (int64, error) {
	r.swapMu.Lock()
	defer r.swapMu.Unlock()
	var latest int64
	var firstErr error
	for _, rep := range r.pool.Replicas() {
		v, err := rep.backend.Reload()
		if err != nil {
			// Best-effort: keep rolling the rest of the fleet forward so
			// the survivors of a mid-reload replica death converge on one
			// version. Aborting here would strand the fleet half
			// rolled-out and turn every scatter into a version-skew 503
			// until the dead replica came back.
			if firstErr == nil {
				firstErr = fmt.Errorf("router: reloading replica %d: %w", rep.ID, err)
			}
			continue
		}
		if v > latest {
			latest = v
		}
	}
	if err := r.refreshMetasLocked(); err != nil {
		return 0, err
	}
	return latest, firstErr
}

// Coordinate runs fn while holding the swap lock, so no scatter
// straddles whatever multi-replica mutation fn performs (the
// public API's fleet-wide Swap uses it), then refreshes and revalidates
// the replica metadata like Reload.
func (r *Router) Coordinate(fn func() error) error {
	r.swapMu.Lock()
	defer r.swapMu.Unlock()
	if err := fn(); err != nil {
		return err
	}
	return r.refreshMetasLocked()
}

// refreshMetasLocked re-probes every backend and checks the fleet still
// keeps the router's plan; a fleet that does not holds the new model,
// and the router must be restarted to serve it. Caller holds swapMu;
// the metas slice is positional over the membership snapshot taken here
// (replica IDs are stable across removals and no longer usable as
// indices).
func (r *Router) refreshMetasLocked() error {
	reps, groups := r.pool.snapshot()
	metas := make([]serve.ModelMeta, len(reps))
	planned := make([]ShardRange, len(reps))
	for i, rep := range reps {
		planned[i] = groups[rep.GroupID].Range
		m, err := rep.backend.Meta()
		if err != nil {
			// Unreachable replicas are the health monitor's problem, not
			// a shape mismatch; keep the last known meta.
			metas[i] = rep.Meta()
			continue
		}
		metas[i] = m
		rep.meta.Store(&m)
	}
	if _, err := r.checkFleet(metas, planned); err != nil {
		return fmt.Errorf("router: the fleet now serves an incompatible model — restart the router to serve it: %w", err)
	}
	return nil
}

// checkFleet is the one fleet-shape check: New, every refresh and
// AddBackend run it on the members' metadata, and its errors name a
// member by its position in metas. It plans the members into shard
// groups (planGroupsFromMetas: one model shape, ranges that tile the
// explicit classes, zone spread). With planned set, the fleet must keep
// the plan the router serves: member i still serves planned[i], and the
// model keeps the router's class count and feature width.
func (r *Router) checkFleet(metas []serve.ModelMeta, planned []ShardRange) ([]GroupPlan, error) {
	plan, err := planGroupsFromMetas(metas)
	if err != nil || planned == nil {
		return plan, err
	}
	for i, m := range metas {
		m = m.Normalized()
		if got := (ShardRange{Low: m.ShardLow, High: m.ShardHigh}); got != planned[i] {
			return nil, fmt.Errorf("router: replica %d now serves shard [%d,%d), planned [%d,%d)",
				i, got.Low, got.High, planned[i].Low, planned[i].High)
		}
	}
	if m := metas[0].Normalized(); m.TotalClasses != r.classes || m.Features != r.features {
		return nil, fmt.Errorf("router: model now has (%d classes, %d features), router planned (%d, %d)",
			m.TotalClasses, m.Features, r.classes, r.features)
	}
	return plan, nil
}

// AddBackend grows the fleet with a freshly built member (the
// autoscaler's scale-up actuator): it joins, as a sibling, the shard
// group whose planned range it serves. The backend is probed first; it
// is refused when its range matches no group or the fleet with it
// fails checkFleet. On success it starts receiving traffic immediately.
// Returns the new member's stable ID.
func (r *Router) AddBackend(b Backend) (int, error) {
	m, err := b.Meta()
	if err != nil {
		return 0, fmt.Errorf("router: probing new replica: %w", err)
	}
	// Serialize against Reload/Coordinate so a fleet-wide swap never
	// interleaves with a membership change.
	r.swapMu.Lock()
	defer r.swapMu.Unlock()
	reps, groups := r.pool.snapshot()
	n := m.Normalized()
	rng := ShardRange{Low: n.ShardLow, High: n.ShardHigh}
	gi := slices.IndexFunc(groups, func(g *Group) bool { return g.Range == rng })
	if gi < 0 {
		return 0, fmt.Errorf("router: new replica refused: shard [%d,%d) matches no group of the fleet", rng.Low, rng.High)
	}
	var metas []serve.ModelMeta
	var planned []ShardRange
	for _, rep := range reps {
		metas = append(metas, rep.Meta())
		planned = append(planned, groups[rep.GroupID].Range)
	}
	if _, err := r.checkFleet(append(metas, m), append(planned, rng)); err != nil {
		return 0, fmt.Errorf("router: new replica refused: %w", err)
	}
	return r.pool.addReplica(b, m, groups[gi].ID).ID, nil
}

// RemoveBackend retires a replica without dropping accepted work: the
// coverage guard (Pool.CanDrain) refuses to remove a shard group's last
// available member, the drain waits out in-flight requests, and only
// then is the member unlinked and its backend closed — under the swap
// lock, so a concurrent Reload can never touch a closed backend. On a
// drain timeout the replica is undrained and the removal abandoned.
func (r *Router) RemoveBackend(id int, drainTimeout time.Duration) error {
	if err := r.pool.CanDrain(id); err != nil {
		return err
	}
	if err := r.pool.Drain(id, drainTimeout); err != nil {
		r.pool.Undrain(id)
		return err
	}
	r.swapMu.Lock()
	victim := r.pool.removeReplica(id)
	r.swapMu.Unlock()
	if victim == nil {
		return fmt.Errorf("router: no replica %d", id)
	}
	victim.backend.Close()
	return nil
}

func (r *Router) getScratch(n int) *[]float64 {
	if p, ok := r.scratch.Get().(*[]float64); ok && cap(*p) >= n {
		return p
	}
	buf := make([]float64, n)
	return &buf
}

func (r *Router) putScratch(p *[]float64) { r.scratch.Put(p) }
