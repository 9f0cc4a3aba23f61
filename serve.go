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
	// surface. A scatter-gather router joins it via a tcp:// URL.
	WireAddr string
	// MaxBatch is the micro-batcher's launch size cap; <= 0 selects 64.
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
	lb, err := newReplica(m, opts.ModelPath, opts.ShardIndex, opts.ShardCount, opts.Zone, opts.Workers, serve.BatcherConfig{
		MaxBatch: opts.MaxBatch, MaxLinger: opts.Linger, QueueDepth: opts.QueueDepth,
		SampleEvery: opts.SampleEvery, Admission: pol,
	})
	if err != nil {
		return nil, err
	}
	ms := &ModelServer{lb: lb, opts: opts}
	var reload func() (int64, error)
	if opts.ModelPath != "" {
		reload = lb.Reload
	}
	ms.srv = serve.NewServer(lb.Registry(), lb.Batcher(), reload)
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
		ms.fsrv = serve.NewFrameServer(lb.Registry(), lb.Batcher(), reload)
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
// stack and every in-process router member alike: a hot-swap registry
// holding m (or, when shardCount > 0, its class shard shardIndex), a
// micro-batcher configured by cfg (its Admission may be nil), and, when
// path is set, a reloader that re-reads path and re-slices the same
// shard. A nil m leaves the registry empty until the first swap.
func newReplica(m *Model, path string, shardIndex, shardCount int, zone string, workers int, cfg serve.BatcherConfig) (*router.LocalBackend, error) {
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
	return router.NewLocalBackend(reg, serve.NewBatcher(reg, cfg), reload), nil
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
	ms.lb.Close()
}

// RouterOptions configures the sharded serving tier: a scatter-gather
// router over N predictor replicas.
type RouterOptions struct {
	// Addr is the router's listen address; empty serves no listener.
	Addr string
	// Replicas is the in-process replica count; <= 0 selects 2. Ignored
	// when Join is set. In class mode this is S, the shard count; with
	// ReplicasPerShard > 1 the tier becomes an R x S grid of
	// Replicas*ReplicasPerShard members.
	Replicas int
	// ReplicasPerShard is R, the in-process member count per class-shard
	// group; <= 0 selects 1. Every shard is served by R interchangeable
	// siblings: a member death fails over within the group and is never
	// client-visible while a sibling survives. Class mode only — replica
	// mode already replicates the whole model (raise Replicas instead).
	// Ignored when Join is set (remote grids replicate by joining several
	// servers per shard range).
	ReplicasPerShard int
	// Zones labels in-process members with failure domains: member r of
	// each shard group gets Zones[r % len(Zones)], so R <= len(Zones)
	// places every group's siblings in distinct zones. Empty leaves
	// members zoneless (placement checks opt out). Ignored when Join is
	// set — remote replicas advertise their own -zone.
	Zones []string
	// Mode is "replica" (data-parallel whole-model replicas,
	// least-loaded routing with failover; the default) or "class"
	// (model-parallel class-sharded replicas, partial-logit
	// scatter-gather merged bitwise-identically to single-node scoring).
	Mode string
	// Join lists remote replicas to front instead of building in-process
	// ones: each address — "tcp://host:9081" or a bare "host:9081" — is
	// the binary frame listener (WireAddr, -wire-addr) of a running
	// nadmm-serve: full models for replica mode, shard replicas (started
	// with ShardIndex/ShardCount) tiling one model for class mode.
	Join []string
	// MaxBatch, Linger, QueueDepth, Workers configure each in-process
	// replica's micro-batcher and device exactly like ServeOptions.
	MaxBatch   int
	Linger     time.Duration
	QueueDepth int
	Workers    int
	// ModelPath, when set, enables POST /v1/reload to hot-swap the
	// model file at that path across the whole in-process fleet.
	ModelPath string
	// HealthEvery is the replica health-probe interval; 0 selects 250ms,
	// negative disables the monitor.
	HealthEvery time.Duration
	// SampleEvery is the observability sampling period for the router
	// tier and every in-process replica: every Nth request is
	// latency-stamped and trace-captured (DESIGN.md "Observability").
	// 0 selects the default (8); negative disables sampling entirely.
	SampleEvery int
	// Admission, AdmissionRate, AdmissionBurst install an admission
	// policy at the router's scatter seam, evaluated per client batch at
	// a cost of rows x features — exactly like the ServeOptions fields
	// of the same names. Swappable at runtime via
	// Router().SetAdmission.
	Admission      string
	AdmissionRate  float64
	AdmissionBurst int
	// AutoscaleMax > 0 enables the in-process autoscaler (DESIGN.md
	// "Control plane"): a target-tracking loop that grows the fleet one
	// replica at a time toward AutoscaleMax under sustained overload and
	// drains it back toward AutoscaleMin when idle. Replica mode with
	// in-process backends only — class mode's shard tiling and remote
	// fleets are not autoscaled. AutoscaleMin <= 0 selects the initial
	// replica count.
	AutoscaleMin, AutoscaleMax int
	// AutoscaleTargetP99 is the latency target driving scale-up; zero
	// tracks utilization only.
	AutoscaleTargetP99 time.Duration
	// AutoscaleTick is the control loop's evaluation period (<= 0
	// selects 1s); AutoscaleCooldown, when > 0, overrides both the
	// scale-up and scale-down cooldowns (defaults 3s/10s).
	AutoscaleTick     time.Duration
	AutoscaleCooldown time.Duration
	// Debug mounts net/http/pprof on the router's surface (opt-in).
	Debug bool
}

// RouterServer is a running scatter-gather serving tier.
type RouterServer struct {
	rt   *router.Router
	srv  *router.Server
	opts RouterOptions

	// The membership is the router's pool: an in-process member is a
	// replica whose backend is a *router.LocalBackend, and its registry
	// reports the class shard and zone it serves. lmu serializes the
	// autoscaler's scale actions against fleet-wide Swap and guards
	// model. Lock order: lmu before the router's internal swap lock
	// (scale actions and Coordinate both take it next).
	lmu   sync.Mutex
	model *Model

	scaler *control.Autoscaler

	ln   net.Listener
	hsrv *http.Server
}

// ServeSharded builds the distributed serving tier: N replicas (each its
// own predictor, hot-swap registry, and micro-batcher — in-process, or
// remote nadmm-serve processes via Join) behind a scatter-gather router
// with health tracking, draining, failover, and coordinated hot swap,
// exposed over the same HTTP surface as Serve. In class mode the
// router's merged predictions and probabilities are bitwise identical to
// a single-node Predictor over the full model, and ReplicasPerShard > 1
// builds an R x S replicated-shard grid: each class shard is served by R
// interchangeable siblings, a mid-scatter member death retries on a
// sibling, and no single replica failure is client-visible (see
// DESIGN.md "Replicated-shard topology").
func ServeSharded(m *Model, opts RouterOptions) (*RouterServer, error) {
	if opts.Replicas <= 0 {
		opts.Replicas = 2
	}
	if opts.ReplicasPerShard <= 0 {
		opts.ReplicasPerShard = 1
	}
	mode := router.Mode(opts.Mode)
	if opts.Mode == "" {
		mode = router.ModeReplica
	}
	if opts.ReplicasPerShard > 1 && mode != router.ModeClass {
		return nil, fmt.Errorf("newtonadmm: ReplicasPerShard needs class mode (replica mode already replicates the whole model; raise Replicas)")
	}
	pol, err := buildAdmission(opts.Admission, opts.AdmissionRate, opts.AdmissionBurst)
	if err != nil {
		return nil, err
	}
	rs := &RouterServer{opts: opts, model: m}
	backends, err := rs.fleet(m, mode)
	if err != nil {
		return nil, err
	}
	rt, err := router.New(backends, router.Options{Mode: mode, HealthEvery: opts.HealthEvery, SampleEvery: opts.SampleEvery})
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
	if opts.AutoscaleMax > 0 {
		if err := rs.startAutoscaler(); err != nil {
			rs.Close()
			return nil, err
		}
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
// in-process grid laid out group-major — S shard groups (Replicas; one
// group of whole-model copies in replica mode) of R siblings each, so
// member s*R+r serves shard s from zone Zones[r % len(Zones)]. On error
// the backends built so far are closed.
func (rs *RouterServer) fleet(m *Model, mode router.Mode) (backends []router.Backend, err error) {
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
	shardCount := 0
	if mode == router.ModeClass {
		shardCount = opts.Replicas
	}
	for s := 0; s < opts.Replicas; s++ {
		for r := 0; r < opts.ReplicasPerShard; r++ {
			zone := ""
			if len(opts.Zones) > 0 {
				zone = opts.Zones[r%len(opts.Zones)]
			}
			shardIdx := s
			if mode != router.ModeClass {
				shardIdx = 0
				if len(opts.Zones) > 0 {
					zone = opts.Zones[s%len(opts.Zones)]
				}
			}
			lb, err := rs.newMember(m, shardIdx, shardCount, zone)
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

// newMember builds one in-process member serving class shard
// shardIndex of shardCount (0: the whole model) from zone.
func (rs *RouterServer) newMember(m *Model, shardIndex, shardCount int, zone string) (*router.LocalBackend, error) {
	o := rs.opts
	return newReplica(m, o.ModelPath, shardIndex, shardCount, zone, o.Workers, serve.BatcherConfig{
		MaxBatch: o.MaxBatch, MaxLinger: o.Linger, QueueDepth: o.QueueDepth, SampleEvery: o.SampleEvery,
	})
}

// members returns the pool's in-process members, oldest first.
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

// startAutoscaler wires the control loop over the router tier's own
// signals: windowed p99 from the nadmm_request_latency histogram,
// utilization from aggregate in-flight over replicas x max-batch.
// Replica mode with in-process backends only — class mode's shard
// tiling is planned at construction, and remote fleets scale
// out-of-process.
func (rs *RouterServer) startAutoscaler() error {
	if rs.rt.Mode() != router.ModeReplica {
		return fmt.Errorf("newtonadmm: autoscaling requires replica mode")
	}
	members := rs.members()
	if len(members) == 0 {
		return fmt.Errorf("newtonadmm: autoscaling requires in-process replicas")
	}
	maxBatch := members[0].Backend().(*router.LocalBackend).Batcher().Config().MaxBatch
	src, err := control.NewRegistrySource(rs.srv.Obs(), "nadmm_request_latency",
		func() int64 {
			var n int64
			for _, rep := range rs.rt.Pool().Replicas() {
				n += rep.InFlight()
			}
			return n
		},
		func() int64 { return int64(len(rs.rt.Pool().Replicas()) * maxBatch) },
		func() int { return len(rs.rt.Pool().Replicas()) },
	)
	if err != nil {
		return fmt.Errorf("newtonadmm: %w", err)
	}
	min := rs.opts.AutoscaleMin
	if min <= 0 {
		min = len(members)
	}
	rs.scaler = control.NewAutoscaler(src, fleetActuator{rs: rs}, control.AutoscalerConfig{
		Min: min, Max: rs.opts.AutoscaleMax,
		TargetP99:  rs.opts.AutoscaleTargetP99,
		Tick:       rs.opts.AutoscaleTick,
		UpCooldown: rs.opts.AutoscaleCooldown, DownCooldown: rs.opts.AutoscaleCooldown,
	})
	rs.srv.RegisterAutoscaler(rs.scaler)
	rs.scaler.Start()
	return nil
}

// fleetActuator adapts the RouterServer's in-process membership to the
// autoscaler's Actuator interface.
type fleetActuator struct{ rs *RouterServer }

func (f fleetActuator) Replicas() int    { return len(f.rs.rt.Pool().Replicas()) }
func (f fleetActuator) ScaleUp() error   { return f.rs.scaleUp() }
func (f fleetActuator) ScaleDown() error { return f.rs.scaleDown() }

// scaleUp spawns one whole-model in-process replica and joins it to
// the pool; it starts receiving traffic as soon as the new membership
// publishes. The replica is built from the fleet's current model
// (Swap keeps it current), in the next zone of the configured cycle.
func (rs *RouterServer) scaleUp() error {
	rs.lmu.Lock()
	defer rs.lmu.Unlock()
	if rs.model == nil {
		return fmt.Errorf("newtonadmm: no model to build a replica from")
	}
	zone := ""
	if len(rs.opts.Zones) > 0 {
		zone = rs.opts.Zones[len(rs.members())%len(rs.opts.Zones)]
	}
	lb, err := rs.newMember(rs.model, 0, 0, zone)
	if err != nil {
		return err
	}
	if _, err := rs.rt.AddBackend(lb); err != nil {
		lb.Close()
		return err
	}
	return nil
}

// scaleDown drains and retires the newest in-process replica. The
// removal routes through Router.RemoveBackend, so the coverage guard
// and the drain protect accepted work; a refused or timed-out drain
// leaves the membership unchanged (the autoscaler retries after its
// next idle run).
func (rs *RouterServer) scaleDown() error {
	rs.lmu.Lock()
	defer rs.lmu.Unlock()
	members := rs.members()
	if len(members) <= 1 {
		return fmt.Errorf("newtonadmm: no removable in-process replica")
	}
	return rs.rt.RemoveBackend(members[len(members)-1].ID, 30*time.Second)
}

// Autoscaler returns the running control loop (nil when autoscaling is
// disabled); tests and the CLI read its Ups/Downs/Replicas counters.
func (rs *RouterServer) Autoscaler() *control.Autoscaler { return rs.scaler }

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
// zero downtime (class mode re-slices the shards). The swap runs under
// the router's coordination lock, so no class-mode scatter straddles
// the rollout and merged logits stay version-consistent; the router's
// replica metadata is refreshed and revalidated against its plan (a
// model whose shape no longer fits the plan is rejected). Returns the
// newest version deployed.
func (rs *RouterServer) Swap(m *Model) (int64, error) {
	if m == nil {
		return 0, fmt.Errorf("newtonadmm: nil model")
	}
	// lmu freezes the in-process membership for the whole rollout, so an
	// autoscaler scale-down cannot retire (and close) a replica between
	// the iteration and the swap into its registry.
	rs.lmu.Lock()
	defer rs.lmu.Unlock()
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
	rs.model = m // future scale-ups spawn replicas of the deployed model
	return latest, nil
}

// SwapReplica hot-swaps a single replica's model while the rest of the
// fleet keeps serving (replica-balanced rollouts; class mode must swap
// the whole fleet via Swap or Reload so shard versions stay aligned).
func (rs *RouterServer) SwapReplica(id int, m *Model) (int64, error) {
	if rs.rt.Mode() != router.ModeReplica {
		return 0, fmt.Errorf("newtonadmm: SwapReplica needs replica mode (use Swap in class mode)")
	}
	if m == nil {
		return 0, fmt.Errorf("newtonadmm: nil model")
	}
	rs.lmu.Lock()
	defer rs.lmu.Unlock()
	// id is the pool's stable replica ID, not a position (they diverge
	// once the autoscaler has removed a member).
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
// in-process replica (batchers drain, devices release).
func (rs *RouterServer) Close() {
	// The control loop goes first so no scale action races teardown.
	if rs.scaler != nil {
		rs.scaler.Stop()
		rs.scaler = nil
	}
	if rs.hsrv != nil {
		rs.hsrv.Close()
		rs.hsrv = nil
	}
	if rs.rt != nil {
		rs.rt.Close()
	}
}
