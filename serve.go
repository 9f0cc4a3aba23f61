package newtonadmm

// Online inference: the public surface of internal/serve. A trained (or
// loaded) Model can score sparse rows and class probabilities directly,
// be wrapped in a reusable zero-allocation Predictor, or be served over
// HTTP with dynamic micro-batching, backpressure, and hot model-file
// reload — see DESIGN.md for the architecture and bench/README.md for
// how throughput and latency are measured.

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"newtonadmm/internal/control"
	"newtonadmm/internal/router"
	"newtonadmm/internal/serve"
)

// SparseRow is one sparse feature row: Values[i] at column Indices[i],
// indices strictly increasing and zero-based.
type SparseRow struct {
	Indices []int
	Values  []float64
}

// Predictor is a persistent, thread-safe scorer over one model snapshot.
// Unlike the one-shot Model.Predict helpers it keeps its device, scratch
// buffers, and staging areas alive between calls, so steady-state
// batches perform zero heap allocations. Close releases the device.
type Predictor struct {
	p *serve.Predictor
}

// NewPredictor builds a reusable predictor from the model. workers <= 0
// selects NumCPU device workers.
func (m *Model) NewPredictor(workers int) (*Predictor, error) {
	p, err := serve.NewPredictor(m.Weights, m.Classes, m.Features, workers)
	if err != nil {
		return nil, fmt.Errorf("newtonadmm: %w", err)
	}
	return &Predictor{p: p}, nil
}

// Predict writes the predicted class of each dense row into
// out[:len(rows)].
func (p *Predictor) Predict(rows [][]float64, out []int) error {
	return p.p.PredictDense(rows, out)
}

// PredictSparse writes the predicted class of each sparse row into
// out[:len(idx)]; idx and val run parallel (see SparseRow for the row
// convention — this indices/values form is the zero-allocation path).
func (p *Predictor) PredictSparse(idx [][]int, val [][]float64, out []int) error {
	return p.p.PredictCSR(idx, val, out)
}

// Proba writes each row's class-probability vector into out, row-major
// len(rows) x Classes with the reference class last.
func (p *Predictor) Proba(rows [][]float64, out []float64) error {
	return p.p.ProbaDense(rows, out)
}

// ProbaSparse is Proba for sparse rows.
func (p *Predictor) ProbaSparse(idx [][]int, val [][]float64, out []float64) error {
	return p.p.ProbaCSR(idx, val, out)
}

// Classes returns the model's class count.
func (p *Predictor) Classes() int { return p.p.Classes() }

// Features returns the model's feature dimension.
func (p *Predictor) Features() int { return p.p.Features() }

// Close releases the predictor's device. The predictor must not be used
// afterwards.
func (p *Predictor) Close() { p.p.Close() }

// splitSparse converts []SparseRow to the parallel-slices form.
func splitSparse(rows []SparseRow) ([][]int, [][]float64) {
	idx := make([][]int, len(rows))
	val := make([][]float64, len(rows))
	for i, r := range rows {
		idx[i], val[i] = r.Indices, r.Values
	}
	return idx, val
}

// PredictSparse classifies sparse feature rows (one-shot; for repeated
// calls build a Predictor).
func (m *Model) PredictSparse(rows []SparseRow) ([]int, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	p, err := m.NewPredictor(0)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	idx, val := splitSparse(rows)
	out := make([]int, len(rows))
	if err := p.PredictSparse(idx, val, out); err != nil {
		return nil, fmt.Errorf("newtonadmm: %w", err)
	}
	return out, nil
}

// PredictProba returns the softmax class probabilities of dense rows,
// one []float64 of length Classes per row (reference class last).
func (m *Model) PredictProba(rows [][]float64) ([][]float64, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	p, err := m.NewPredictor(0)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	flat := make([]float64, len(rows)*m.Classes)
	if err := p.Proba(rows, flat); err != nil {
		return nil, fmt.Errorf("newtonadmm: %w", err)
	}
	return unflattenProba(flat, len(rows), m.Classes), nil
}

// PredictProbaSparse is PredictProba for sparse rows.
func (m *Model) PredictProbaSparse(rows []SparseRow) ([][]float64, error) {
	if len(rows) == 0 {
		return nil, nil
	}
	p, err := m.NewPredictor(0)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	idx, val := splitSparse(rows)
	flat := make([]float64, len(rows)*m.Classes)
	if err := p.ProbaSparse(idx, val, flat); err != nil {
		return nil, fmt.Errorf("newtonadmm: %w", err)
	}
	return unflattenProba(flat, len(rows), m.Classes), nil
}

func unflattenProba(flat []float64, rows, classes int) [][]float64 {
	out := make([][]float64, rows)
	for i := range out {
		out[i] = flat[i*classes : (i+1)*classes]
	}
	return out
}

// ServeOptions configures an HTTP model server.
type ServeOptions struct {
	// Addr is the listen address (e.g. ":8080"); empty serves no
	// listener — use Handler with your own server.
	Addr string
	// WireAddr, when set, additionally listens there with the binary
	// frame data plane (internal/wire; see DESIGN.md "Binary data
	// plane"), sharing the same batcher and registry as the HTTP
	// surface. A scatter-gather router joins it via a tcp:// URL; its
	// scatter legs read the registry directly (OpScores), and the
	// batcher serves the OpPredict/OpProba frames of direct clients.
	WireAddr string
	// MaxBatch is the micro-batcher's launch size cap; <= 0 selects 64.
	// The batcher serves this server's own HTTP and frame clients; a
	// router's scatter legs do not pass through it.
	MaxBatch int
	// Linger is the micro-batcher's flush window; 0 selects 200µs,
	// negative disables lingering.
	Linger time.Duration
	// QueueDepth bounds the admission queue; <= 0 selects 4*MaxBatch.
	QueueDepth int
	// Workers is the predictor's device worker count; <= 0 selects
	// NumCPU.
	Workers int
	// ModelPath, when set, enables POST /v1/reload (and Watch) to
	// hot-swap the model file at that path into the running server.
	ModelPath string
	// Watch > 0 polls ModelPath at that interval and hot-swaps when the
	// file changes (mtime/size), so `nadmm-train -save` into the same
	// path deploys with zero downtime.
	Watch time.Duration
	// ShardCount > 0 makes this server a class-shard replica: it serves
	// only shard ShardIndex of ShardCount — the contiguous slice of the
	// model's explicit class rows assigned by the shard planner — and
	// reports the shard range on /healthz so a scatter-gather router can
	// assemble the fleet. Reload and Watch re-slice the same shard from
	// the refreshed model file.
	ShardIndex, ShardCount int
	// Zone is this replica's failure-domain label (zone, rack, host),
	// advertised on /healthz and the binary data plane's meta frame. A
	// router fronting a replicated fleet uses it to enforce the
	// zone-spread placement invariant — see DESIGN.md "Replicated-shard
	// topology". Empty opts out of placement checks.
	Zone string
	// SampleEvery is the observability sampling period: every Nth
	// request is latency-stamped and trace-captured (DESIGN.md
	// "Observability"). 0 selects the default (8); negative disables
	// sampling entirely.
	SampleEvery int
	// Admission selects the admission policy evaluated on every submit,
	// before a queue slot is taken (DESIGN.md "Control plane"): "" or
	// "none" keeps admission open (the queue bound still applies),
	// "token-bucket" admits AdmissionRate requests/s with bursts up to
	// AdmissionBurst, "cost" prices each request at rows x features
	// against a bucket refilled at AdmissionRate cost-units/s with
	// capacity AdmissionBurst.
	Admission      string
	AdmissionRate  float64
	AdmissionBurst int
	// Debug mounts net/http/pprof under /debug/pprof/ (opt-in: the
	// profiling endpoints expose stack traces).
	Debug bool
}

// buildAdmission constructs the policy named by kind (the ServeOptions
// and RouterOptions Admission field).
func buildAdmission(kind string, rate float64, burst int) (control.AdmissionPolicy, error) {
	switch kind {
	case "", "none":
		return nil, nil
	case "token-bucket":
		return control.NewTokenBucket(rate, burst), nil
	case "cost":
		return control.NewCostPolicy(rate, int64(burst)), nil
	default:
		return nil, fmt.Errorf("newtonadmm: unknown admission policy %q (want none, token-bucket, or cost)", kind)
	}
}

// ModelServer is a running (or embeddable) inference server.
type ModelServer struct {
	lb   *router.LocalBackend
	bat  *serve.Batcher
	srv  *serve.Server
	opts ServeOptions

	ln    net.Listener
	hsrv  *http.Server
	wln   net.Listener
	fsrv  *serve.FrameServer
	stopW chan struct{} // closing it stops the watch loop
	watch sync.WaitGroup
}

// Serve builds the full serving stack for m — predictor, hot-swap
// registry, micro-batcher, HTTP surface — and, when opts.Addr is set,
// starts listening. The returned server's Swap method (and the
// /v1/reload endpoint when ModelPath is set) replaces the model with
// zero downtime.
func Serve(m *Model, opts ServeOptions) (*ModelServer, error) {
	pol, err := buildAdmission(opts.Admission, opts.AdmissionRate, opts.AdmissionBurst)
	if err != nil {
		return nil, err
	}
	lb, err := newReplica(m, opts.ModelPath, opts.ShardIndex, opts.ShardCount, opts.Zone, opts.Workers)
	if err != nil {
		return nil, err
	}
	ms := &ModelServer{lb: lb, opts: opts, bat: serve.NewBatcher(lb.Registry(), serve.BatcherConfig{
		MaxBatch: opts.MaxBatch, MaxLinger: opts.Linger, QueueDepth: opts.QueueDepth,
		SampleEvery: opts.SampleEvery, Admission: pol,
	})}
	var reload func() (int64, error)
	if opts.ModelPath != "" {
		reload = lb.Reload
	}
	ms.srv = serve.NewServer(lb.Registry(), ms.bat, reload)
	if opts.Debug {
		ms.srv.EnableDebug()
	}

	if opts.Addr != "" {
		if ms.ln, ms.hsrv, err = listenHTTP(opts.Addr, ms.srv.Handler()); err != nil {
			ms.Close()
			return nil, err
		}
	}
	if opts.WireAddr != "" {
		wln, err := net.Listen("tcp", opts.WireAddr)
		if err != nil {
			ms.Close()
			return nil, fmt.Errorf("newtonadmm: %w", err)
		}
		ms.wln = wln
		ms.fsrv = serve.NewFrameServer(lb.Registry(), ms.bat, reload)
		go ms.fsrv.Serve(wln)
	}
	if opts.Watch > 0 && opts.ModelPath != "" {
		ms.stopW = make(chan struct{})
		ms.watch.Add(1)
		go ms.watchLoop(ms.stopW)
	}
	return ms, nil
}

// newReplica builds one serving replica — the single-node server's
// registry and every in-process router member alike: a hot-swap
// registry holding m (or, when shardCount > 0, its class shard
// shardIndex) and, when path is set, a reloader that re-reads path and
// re-slices the same shard. A nil m leaves the registry empty until the
// first swap.
func newReplica(m *Model, path string, shardIndex, shardCount int, zone string, workers int) (*router.LocalBackend, error) {
	reg := serve.NewRegistry()
	swap := func(next *Model) (int64, error) {
		return swapShardInto(reg, next, path, shardIndex, shardCount, workers, zone)
	}
	if m != nil {
		if _, err := swap(m); err != nil {
			reg.Close()
			return nil, err
		}
	}
	var reload func() (int64, error)
	if path != "" {
		reload = func() (int64, error) {
			next, err := LoadModel(path)
			if err != nil {
				return 0, err
			}
			return swap(next)
		}
	}
	return router.NewLocalBackend(reg, reload), nil
}

// swapShardInto builds a predictor for m — or, when shardCount > 0, its
// class shard shardIndex of shardCount with the matching shard metadata
// — and hot-swaps it into reg. This is the single swap path shared by
// the single-node server, the in-process router replicas, and the
// fleet-wide Swap.
func swapShardInto(reg *serve.Registry, m *Model, path string, shardIndex, shardCount, workers int, zone string) (int64, error) {
	weights, classes := m.Weights, m.Classes
	meta := serve.ModelMeta{Path: path, Solver: m.Solver, Zone: zone}
	if shardCount > 0 {
		var rng router.ShardRange
		var err error
		weights, classes, rng, err = shardSlice(m, shardIndex, shardCount)
		if err != nil {
			return 0, err
		}
		meta.ShardIndex, meta.ShardCount = shardIndex, shardCount
		meta.ShardLow, meta.ShardHigh = rng.Low, rng.High
		meta.TotalClasses = m.Classes
	}
	p, err := serve.NewPredictor(weights, classes, m.Features, workers)
	if err != nil {
		return 0, fmt.Errorf("newtonadmm: %w", err)
	}
	return reg.Swap(p, meta), nil
}

// shardSlice returns shard i-of-n of the model's explicit class rows:
// the weight sub-vector, the shard's local class count (slice width plus
// the implicit reference class), and the covered range.
func shardSlice(m *Model, i, n int) ([]float64, int, router.ShardRange, error) {
	if i < 0 || i >= n {
		return nil, 0, router.ShardRange{}, fmt.Errorf("newtonadmm: shard index %d outside [0,%d)", i, n)
	}
	plan, err := router.PlanShards(m.Classes, n)
	if err != nil {
		return nil, 0, router.ShardRange{}, fmt.Errorf("newtonadmm: %w", err)
	}
	rng := plan[i]
	w := m.Weights[rng.Low*m.Features : rng.High*m.Features]
	return w, rng.Width() + 1, rng, nil
}

// fileStamp identifies one version of a file on disk: its modification
// time in Unix nanoseconds and its size.
type fileStamp struct{ mod, size int64 }

func stampOf(st os.FileInfo) fileStamp { return fileStamp{st.ModTime().UnixNano(), st.Size()} }

// watchLoop polls ModelPath and hot-swaps when the model file changes,
// until stop closes.
func (ms *ModelServer) watchLoop(stop <-chan struct{}) {
	defer ms.watch.Done()
	var last, failed fileStamp
	if st, err := os.Stat(ms.opts.ModelPath); err == nil {
		last = stampOf(st)
	}
	tick := time.NewTicker(ms.opts.Watch)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			st, err := os.Stat(ms.opts.ModelPath)
			if err != nil {
				continue
			}
			now := stampOf(st)
			if now == last {
				continue
			}
			if v, err := ms.lb.Reload(); err != nil {
				// Keep retrying (a file copied in non-atomically heals on the
				// next tick), but tell the operator once per file
				// version — a corrupt file would otherwise fail silently
				// while healthz keeps reporting the old version, or
				// flood the log on every tick.
				if now != failed {
					failed = now
					log.Printf("newtonadmm: hot-swap watch: reloading %s failed: %v", ms.opts.ModelPath, err)
				}
			} else {
				last = now
				log.Printf("newtonadmm: hot-swap watch: %s deployed as model version %d", ms.opts.ModelPath, v)
			}
		}
	}
}

// Swap hot-swaps a new model into the running server with zero downtime
// and returns the new model version.
func (ms *ModelServer) Swap(m *Model) (int64, error) {
	if m == nil {
		return 0, fmt.Errorf("newtonadmm: nil model")
	}
	return swapShardInto(ms.lb.Registry(), m, "", ms.opts.ShardIndex, ms.opts.ShardCount, ms.opts.Workers, ms.opts.Zone)
}

// Handler returns the HTTP surface (/v1/predict, /v1/proba, /healthz,
// /metricz, /v1/reload) for embedding in an existing server.
func (ms *ModelServer) Handler() http.Handler { return ms.srv.Handler() }

// Addr returns the bound listen address ("" when not listening) — handy
// with ":0".
func (ms *ModelServer) Addr() string {
	if ms.ln == nil {
		return ""
	}
	return ms.ln.Addr().String()
}

// WireAddr returns the binary data plane's bound listen address (""
// when WireAddr was not configured); join it from a router with
// "tcp://" + WireAddr().
func (ms *ModelServer) WireAddr() string {
	if ms.wln == nil {
		return ""
	}
	return ms.wln.Addr().String()
}

// Close stops the listener (if any), drains the batcher, and releases
// the model's device.
func (ms *ModelServer) Close() {
	if ms.stopW != nil {
		close(ms.stopW)
		ms.stopW = nil
		ms.watch.Wait() // no reload may land in the closed replica
	}
	if ms.hsrv != nil {
		ms.hsrv.Close()
		ms.hsrv = nil
	}
	if ms.fsrv != nil {
		ms.fsrv.Close()
		ms.fsrv = nil
	}
	ms.bat.Close()
	ms.lb.Close()
}

// RouterOptions configures the sharded serving tier: a scatter-gather
// router over an R x S grid of predictor replicas, where every request
// scatters to the S shard groups and each group's leg is scored by one
// of its R siblings.
type RouterOptions struct {
	// Addr is the router's listen address; empty serves no listener.
	Addr string
	// Replicas is the in-process member count of the Mode's layout; <= 0
	// selects 2. Ignored when Join is set.
	Replicas int
	// ReplicasPerShard is R, the in-process member count per shard group
	// in the "class" layout; <= 0 selects 1. Every shard is served by R
	// interchangeable siblings: a member death fails over within the
	// group and is never client-visible while a sibling survives. The
	// "replica" layout takes R from Replicas instead. Ignored when Join
	// is set (remote grids replicate by joining several servers per
	// shard range).
	ReplicasPerShard int
	// Zones labels in-process members with failure domains: member r of
	// each shard group gets Zones[r % len(Zones)], so R <= len(Zones)
	// places every group's siblings in distinct zones. Empty leaves
	// members zoneless (placement checks opt out). Ignored when Join is
	// set — remote replicas advertise their own -zone.
	Zones []string
	// Mode lays out in-process members: "replica" (the default) builds
	// Replicas whole-model members, one S = 1 group of R = Replicas
	// siblings; "class" builds S = Replicas class shards of
	// R = ReplicasPerShard siblings each. Both serve through the same
	// partial-logit scatter-gather, merged bitwise-identically to
	// single-node scoring. Ignored when Join is set: a joined fleet's
	// layout is read from its members' shard ranges.
	Mode string
	// Join lists remote replicas to front instead of building in-process
	// ones: each address — "tcp://host:9081" or a bare "host:9081" — is
	// the binary frame listener (WireAddr, -wire-addr) of a running
	// nadmm-serve, serving the whole model or a class shard
	// (ShardIndex/ShardCount); the members' ranges must tile one model.
	Join []string
	// Workers is each in-process member's device worker count; <= 0
	// selects NumCPU.
	Workers int
	// ModelPath, when set, enables POST /v1/reload to hot-swap the
	// model file at that path across the whole in-process fleet.
	ModelPath string
	// HealthEvery is the replica health-probe interval; 0 selects 250ms,
	// negative disables the monitor.
	HealthEvery time.Duration
	// SampleEvery is the observability sampling period for the router
	// tier: every Nth request is latency-stamped and trace-captured
	// (DESIGN.md "Observability"). 0 selects the default (8); negative
	// disables sampling entirely.
	SampleEvery int
	// Admission, AdmissionRate, AdmissionBurst install an admission
	// policy at the router's scatter seam, evaluated per client batch at
	// a cost of rows x features — exactly like the ServeOptions fields
	// of the same names. Swappable at runtime via
	// Router().SetAdmission.
	Admission      string
	AdmissionRate  float64
	AdmissionBurst int
	// Debug mounts net/http/pprof on the router's surface (opt-in).
	Debug bool
}

// RouterServer is a running scatter-gather serving tier. Its
// membership is the router's pool, fixed at construction: an in-process
// member is a replica whose backend is a *router.LocalBackend, and its
// registry reports the class shard and zone it serves.
type RouterServer struct {
	rt   *router.Router
	srv  *router.Server
	opts RouterOptions

	ln   net.Listener
	hsrv *http.Server
}

// ServeSharded builds the distributed serving tier: an R x S grid of
// replicas (each its own predictor and hot-swap registry — in-process,
// or remote nadmm-serve processes via Join) behind a scatter-gather
// router with health tracking, draining, failover, and coordinated hot
// swap, exposed over the same HTTP surface as Serve. The router's merged
// predictions and probabilities are bitwise identical to a single-node
// Predictor over the full model; each shard group is served by R
// interchangeable siblings, a mid-scatter member death retries on a
// sibling, and no single replica failure is client-visible while a
// sibling lives (see DESIGN.md "Replicated-shard topology").
func ServeSharded(m *Model, opts RouterOptions) (*RouterServer, error) {
	if opts.Replicas <= 0 {
		opts.Replicas = 2
	}
	if opts.ReplicasPerShard <= 0 {
		opts.ReplicasPerShard = 1
	}
	switch opts.Mode {
	case "", "replica":
		if opts.ReplicasPerShard > 1 {
			return nil, fmt.Errorf("newtonadmm: ReplicasPerShard needs the class layout (the replica layout's siblings are Replicas)")
		}
	case "class":
	default:
		return nil, fmt.Errorf("newtonadmm: unknown router mode %q (want replica or class)", opts.Mode)
	}
	pol, err := buildAdmission(opts.Admission, opts.AdmissionRate, opts.AdmissionBurst)
	if err != nil {
		return nil, err
	}
	rs := &RouterServer{opts: opts}
	backends, err := rs.fleet(m)
	if err != nil {
		return nil, err
	}
	rt, err := router.New(backends, router.Options{HealthEvery: opts.HealthEvery, SampleEvery: opts.SampleEvery})
	if err != nil {
		for _, b := range backends {
			b.Close()
		}
		return nil, fmt.Errorf("newtonadmm: %w", err)
	}
	rt.SetAdmission(pol)
	rs.rt = rt
	rs.srv = router.NewServer(rt)
	if opts.Debug {
		rs.srv.EnableDebug()
	}
	if opts.Addr != "" {
		if rs.ln, rs.hsrv, err = listenHTTP(opts.Addr, rs.srv.Handler()); err != nil {
			rs.Close()
			return nil, err
		}
	}
	return rs, nil
}

// fleet builds the tier's backends: one per Join address, or else the
// in-process grid laid out group-major — S shard groups of R siblings
// each (the "replica" layout: S = 1 of whole-model copies), so member
// s*R+r serves shard s from zone Zones[r % len(Zones)]. On error the
// backends built so far are closed.
func (rs *RouterServer) fleet(m *Model) (backends []router.Backend, err error) {
	defer func() {
		if err != nil {
			for _, b := range backends {
				b.Close()
			}
		}
	}()
	opts := rs.opts
	for _, base := range opts.Join {
		b, err := router.BackendForURL(base)
		if err != nil {
			return backends, fmt.Errorf("newtonadmm: %w", err)
		}
		backends = append(backends, b)
	}
	if len(opts.Join) > 0 {
		return backends, nil
	}
	if m == nil {
		return nil, fmt.Errorf("newtonadmm: ServeSharded needs a model (or Join addresses)")
	}
	shards, perShard, shardCount := 1, opts.Replicas, 0
	if opts.Mode == "class" {
		shards, perShard, shardCount = opts.Replicas, opts.ReplicasPerShard, opts.Replicas
	}
	for s := 0; s < shards; s++ {
		for r := 0; r < perShard; r++ {
			zone := ""
			if len(opts.Zones) > 0 {
				zone = opts.Zones[r%len(opts.Zones)]
			}
			lb, err := newReplica(m, opts.ModelPath, s, shardCount, zone, opts.Workers)
			if err != nil {
				return backends, err
			}
			backends = append(backends, lb)
		}
	}
	return backends, nil
}

// listenHTTP serves h on addr in the background.
func listenHTTP(addr string, h http.Handler) (net.Listener, *http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("newtonadmm: %w", err)
	}
	hs := &http.Server{Handler: h}
	go hs.Serve(ln)
	return ln, hs, nil
}

// members returns the pool's in-process members in ID order.
func (rs *RouterServer) members() []*router.Replica {
	var out []*router.Replica
	for _, rep := range rs.rt.Pool().Replicas() {
		if _, ok := rep.Backend().(*router.LocalBackend); ok {
			out = append(out, rep)
		}
	}
	return out
}

// swapMember hot-swaps m into an in-process member, re-slicing the class
// shard and keeping the zone its registry reports.
func (rs *RouterServer) swapMember(rep *router.Replica, m *Model) (int64, error) {
	reg := rep.Backend().(*router.LocalBackend).Registry()
	mm, ok := reg.Meta()
	if !ok {
		return 0, serve.ErrNoModel
	}
	return swapShardInto(reg, m, "", mm.ShardIndex, mm.ShardCount, rs.opts.Workers, mm.Zone)
}

// Router returns the underlying router (stats, drain/undrain).
func (rs *RouterServer) Router() *router.Router { return rs.rt }

// Handler returns the router's HTTP surface for embedding.
func (rs *RouterServer) Handler() http.Handler { return rs.srv.Handler() }

// Addr returns the bound listen address ("" when not listening).
func (rs *RouterServer) Addr() string {
	if rs.ln == nil {
		return ""
	}
	return rs.ln.Addr().String()
}

// Swap hot-swaps a new model across the whole in-process fleet with
// zero downtime (class shards are re-sliced). The swap runs under the
// router's coordination lock, so no scatter straddles the rollout and
// merged logits stay version-consistent; the router's replica metadata
// is refreshed and revalidated against its plan (a model whose shape no
// longer fits the plan is rejected). Returns the newest version
// deployed.
func (rs *RouterServer) Swap(m *Model) (int64, error) {
	if m == nil {
		return 0, fmt.Errorf("newtonadmm: nil model")
	}
	members := rs.members()
	if len(members) == 0 {
		return 0, fmt.Errorf("newtonadmm: Swap needs in-process replicas (remote fleets reload via /v1/reload)")
	}
	var latest int64
	err := rs.rt.Coordinate(func() error {
		for _, rep := range members {
			v, err := rs.swapMember(rep, m)
			if err != nil {
				return err
			}
			if v > latest {
				latest = v
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return latest, nil
}

// SwapReplica hot-swaps a single replica's model while the rest of the
// fleet keeps serving: a rollout over a fleet of one group, where every
// leg is scored by one member. A multi-group grid must swap the whole
// fleet via Swap or Reload so shard versions stay aligned.
func (rs *RouterServer) SwapReplica(id int, m *Model) (int64, error) {
	if len(rs.rt.Pool().Groups()) != 1 {
		return 0, fmt.Errorf("newtonadmm: SwapReplica needs a fleet of one shard group (use Swap for a class-sharded grid)")
	}
	if m == nil {
		return 0, fmt.Errorf("newtonadmm: nil model")
	}
	var target *router.Replica
	for _, rep := range rs.members() {
		if rep.ID == id {
			target = rep
		}
	}
	if target == nil {
		return 0, fmt.Errorf("newtonadmm: no in-process replica %d", id)
	}
	// The router's buffers and merge plan are sized at construction; a
	// replica with a different shape would corrupt routing, so a
	// shape-changing rollout must rebuild the tier (or go through Swap,
	// which revalidates the whole fleet).
	if m.Classes != rs.rt.Classes() || m.Features != rs.rt.Features() {
		return 0, fmt.Errorf("newtonadmm: replacement model shape (%d classes, %d features) != serving tier (%d, %d)",
			m.Classes, m.Features, rs.rt.Classes(), rs.rt.Features())
	}
	return rs.swapMember(target, m)
}

// Close stops the listener, the router's health monitor, and every
// in-process replica (devices release).
func (rs *RouterServer) Close() {
	if rs.hsrv != nil {
		rs.hsrv.Close()
		rs.hsrv = nil
	}
	if rs.rt != nil {
		rs.rt.Close()
	}
}
