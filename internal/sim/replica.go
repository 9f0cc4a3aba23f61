package sim

import (
	"errors"
	"math"
	"time"

	"newtonadmm/internal/cluster"
	"newtonadmm/internal/control"
	"newtonadmm/internal/router"
	"newtonadmm/internal/serve"
)

// replicaConfig shapes one virtual replica. totalClasses > 0 selects a
// class shard (PartialScores plane); 0 selects a full replica (Predict
// plane, backed by a real serve.Batcher).
type replicaConfig struct {
	classes, features int
	totalClasses      int
	shardIndex        int
	shardCount        int
	shard             router.ShardRange
	zone              string

	maxBatch   int
	linger     time.Duration
	queueDepth int // per priority class, mirroring the real batcher's queues
	service    cluster.ServiceTimeModel
	net        cluster.NetworkModel
}

// vjob is one enqueued scatter leg: the rows of one client request on
// one replica, tied back to the request record for completion
// accounting.
type vjob struct {
	rec  *reqRecord
	pri  control.Priority
	rows int
}

// SimReplica is a virtual replica: a router.Backend whose data plane
// costs virtual time instead of wall time. Its queue mirrors the real
// batcher's semantics — bounded per-class admission queues drained by
// the REAL control.WRR scheduler, batch formation with a linger window
// measured from formation — and its service time comes from the
// calibrated cluster.ServiceTimeModel. Full replicas additionally pass
// every admitted request through a REAL serve.Batcher (linger disabled,
// deterministic scorer), so the production submit/dequeue/score path
// runs on every simulated request.
//
// All methods run on the simulation goroutine (the router is built with
// SerialScatter and its wall health monitor disabled), so the virtual
// state needs no locking.
type SimReplica struct {
	s       *Sim
	cfg     replicaConfig
	version int64

	bat *serve.Batcher  // real serving path; nil for class shards
	rep *router.Replica // pool entry, set at registration

	wrr         *control.WRR
	waiting     [control.NumPriorities][]*vjob
	forming     []*vjob
	formingRows int
	gen         uint64 // linger-timer generation: launch invalidates pending timers
	serving     bool
	closed      bool
}

func newSimReplica(s *Sim, cfg replicaConfig) *SimReplica {
	r := &SimReplica{s: s, cfg: cfg, version: 1, wrr: control.NewWRR(control.DefaultWeights)}
	if cfg.totalClasses == 0 {
		r.bat = serve.NewBatcher(fakeSource{scorer: &fakeScorer{classes: cfg.classes, features: cfg.features}}, serve.BatcherConfig{
			MaxBatch:    cfg.maxBatch,
			MaxLinger:   -1, // wall lingering would not advance virtual time
			SampleEvery: -1,
		})
	}
	return r
}

// Meta implements router.Backend; it doubles as the health probe.
func (r *SimReplica) Meta() (serve.ModelMeta, error) {
	if r.closed {
		return serve.ModelMeta{}, serve.ErrClosed
	}
	m := serve.ModelMeta{Classes: r.cfg.classes, Features: r.cfg.features, Version: r.version, Zone: r.cfg.zone}
	if r.cfg.totalClasses > 0 {
		m.Classes = r.cfg.shard.Width() + 1
		m.ShardIndex = r.cfg.shardIndex
		m.ShardCount = r.cfg.shardCount
		m.ShardLow = r.cfg.shard.Low
		m.ShardHigh = r.cfg.shard.High
		m.TotalClasses = r.cfg.totalClasses
	}
	return m, nil
}

// Score implements router.Backend (full-replica data plane): admit
// into the virtual queue, then run the rows through the real batcher so
// the production serve path executes too.
func (r *SimReplica) Score(b *router.Batch, preds []int, proba []float64) error {
	if r.closed {
		return serve.ErrClosed
	}
	if err := r.enqueue(b); err != nil {
		return err
	}
	return r.bat.ScoreBatch(&b.Batch, b.Priority, nil, preds, proba)
}

// PartialScores implements router.Backend (class-sharded data plane):
// the shard's explicit-class logits are a pure function of (row,
// absolute class), so sibling replicas of the same range produce
// bit-identical tiles and failover cannot change a prediction.
func (r *SimReplica) PartialScores(b *router.Batch, cols int, out []float64) (int64, error) {
	if r.closed {
		return 0, serve.ErrClosed
	}
	if cols != r.cfg.shard.Width() {
		return 0, serve.ErrModelShapeChanged
	}
	if err := r.enqueue(b); err != nil {
		return 0, err
	}
	for i, row := range b.Dense {
		for c := 0; c < cols; c++ {
			out[i*cols+c] = logitOf(row, r.cfg.shard.Low+c)
		}
	}
	return r.version, nil
}

// Reload implements router.Backend.
func (r *SimReplica) Reload() (int64, error) {
	if r.closed {
		return 0, serve.ErrClosed
	}
	r.version++
	return r.version, nil
}

// Close implements router.Backend.
func (r *SimReplica) Close() {
	if r.closed {
		return
	}
	r.closed = true
	if r.bat != nil {
		r.bat.Close()
	}
}

// idle reports whether the replica holds no virtual work — the
// autoscaler only retires idle replicas (the pool's Drain spin is
// wall-clock and must not be entered with virtual backlog).
func (r *SimReplica) idle() bool {
	if r.serving || r.forming != nil {
		return false
	}
	for c := range r.waiting {
		if len(r.waiting[c]) > 0 {
			return false
		}
	}
	return true
}

// enqueue admits one request's rows into the virtual queue, mirroring
// the real batcher: an idle replica starts forming a batch (lingering
// up to the window for stragglers), a forming batch accepts joiners
// until full, and a busy replica parks the job in its bounded per-class
// queue — full queue is ErrQueueFull backpressure, exactly what the
// real admission queues return, so the real router failover and the
// real rejection taxonomy engage.
func (r *SimReplica) enqueue(b *router.Batch) error {
	j := &vjob{rec: r.s.cur, pri: b.Priority, rows: b.Rows()}
	switch {
	case r.forming != nil: // linger window open: join the forming batch
		r.forming = append(r.forming, j)
		r.formingRows += j.rows
		r.noteEnqueued(j)
		if r.formingRows >= r.cfg.maxBatch {
			r.launch()
		}
	case r.serving: // busy: bounded per-class backlog
		if len(r.waiting[j.pri]) >= r.cfg.queueDepth {
			return serve.ErrQueueFull
		}
		r.waiting[j.pri] = append(r.waiting[j.pri], j)
		r.noteEnqueued(j)
	default: // idle: start a batch
		r.forming = append(make([]*vjob, 0, 4), j)
		r.formingRows = j.rows
		r.noteEnqueued(j)
		if r.formingRows >= r.cfg.maxBatch || r.cfg.linger <= 0 {
			r.launch()
		} else {
			r.armLinger()
		}
	}
	return nil
}

// noteEnqueued records one accepted leg: the request gains a pending
// leg and the pool's inflight gauge gains the backlog, so the REAL P2C
// picker sees virtual queue depth when comparing replicas.
func (r *SimReplica) noteEnqueued(j *vjob) {
	if j.rec != nil {
		j.rec.legs++
	}
	r.s.vInflight++
	if r.rep != nil {
		r.rep.AdjustLoad(1)
	}
}

// armLinger schedules the linger flush for the currently forming batch.
// The generation token cancels the timer when the batch launches early
// (filled up) — the virtual analogue of timer.Stop.
func (r *SimReplica) armLinger() {
	r.gen++
	g := r.gen
	r.s.clock.After(r.cfg.linger, func() {
		if r.closed || r.serving || r.forming == nil || r.gen != g {
			return
		}
		r.launch()
	})
}

// launch moves the forming batch into service for its modeled batch
// time.
func (r *SimReplica) launch() {
	r.gen++
	batch, rows := r.forming, r.formingRows
	r.forming, r.formingRows = nil, 0
	r.serving = true
	r.s.clock.After(r.cfg.service.BatchTime(rows), func() { r.complete(batch) })
}

// complete finishes a served batch: each leg lands after its wire cost,
// then the backlog refills the next batch through the real WRR
// scheduler (linger again only if the drain left the batch short).
func (r *SimReplica) complete(batch []*vjob) {
	r.serving = false
	now := r.s.clock.VNow()
	for _, j := range batch {
		r.s.legDone(r, j, now+r.wireCost(j.rows))
	}
	if r.closed {
		return
	}
	next, rows := r.takeWaiting()
	if len(next) == 0 {
		return
	}
	r.forming, r.formingRows = next, rows
	if r.formingRows >= r.cfg.maxBatch || r.cfg.linger <= 0 {
		r.launch()
	} else {
		r.armLinger()
	}
}

// takeWaiting drains up to one batch from the per-class backlog using
// the real weighted-round-robin scheduler, so a background flood gets
// exactly its credit share of batch slots — the starvation bound the
// control plane pins.
func (r *SimReplica) takeWaiting() ([]*vjob, int) {
	var out []*vjob
	rows := 0
	pending := func(c control.Priority) int { return len(r.waiting[c]) }
	for rows < r.cfg.maxBatch {
		c, ok := r.wrr.Pick(pending)
		if !ok {
			break
		}
		j := r.waiting[c][0]
		copy(r.waiting[c], r.waiting[c][1:])
		r.waiting[c] = r.waiting[c][:len(r.waiting[c])-1]
		out = append(out, j)
		rows += j.rows
	}
	return out, rows
}

// wireCost models the request/response transfer for one leg: one
// point-to-point hop each way on the scenario's interconnect, request
// sized by the feature rows, response by the score tile.
func (r *SimReplica) wireCost(rows int) time.Duration {
	reqBytes := rows*r.cfg.features*8 + 64
	respCols := 1
	if r.cfg.totalClasses > 0 {
		respCols = r.cfg.shard.Width()
	}
	respBytes := rows*respCols*8 + 64
	return r.cfg.net.BcastCost(2, reqBytes) + r.cfg.net.BcastCost(2, respBytes)
}

// fakeScorer is the deterministic stand-in model behind each full
// replica's real batcher: logits are a pure function of (row, class),
// so predictions depend only on the request and never on which replica
// served it.
type fakeScorer struct {
	classes, features int
}

func (f *fakeScorer) Classes() int  { return f.classes }
func (f *fakeScorer) Features() int { return f.features }

// logitOf is the shared deterministic logit function (also used for
// class-shard partial tiles).
func logitOf(row []float64, class int) float64 {
	s := 0.0
	for i, v := range row {
		s += v * float64(i%7+1)
	}
	return math.Sin(s + 1.7*float64(class))
}

func (f *fakeScorer) PredictDense(rows [][]float64, out []int) error {
	for i, row := range rows {
		best, bestScore := f.classes-1, 0.0 // implicit reference class scores 0
		for c := 0; c < f.classes-1; c++ {
			if sc := logitOf(row, c); sc > bestScore {
				best, bestScore = c, sc
			}
		}
		out[i] = best
	}
	return nil
}

func (f *fakeScorer) ProbaDense(rows [][]float64, out []float64) error {
	for i, row := range rows {
		dst := out[i*f.classes : (i+1)*f.classes]
		sum := 0.0
		for c := range dst {
			l := 0.0
			if c < f.classes-1 {
				l = logitOf(row, c)
			}
			dst[c] = math.Exp(l)
			sum += dst[c]
		}
		for c := range dst {
			dst[c] /= sum
		}
	}
	return nil
}

func (f *fakeScorer) PredictCSR([][]int, [][]float64, []int) error {
	return errors.New("sim: sparse rows not simulated")
}

func (f *fakeScorer) ProbaCSR([][]int, [][]float64, []float64) error {
	return errors.New("sim: sparse rows not simulated")
}

// fakeSource hands out the scorer without device bookkeeping.
type fakeSource struct{ scorer *fakeScorer }

func (s fakeSource) Acquire() (serve.Scorer, func(), error) { return s.scorer, func() {}, nil }
