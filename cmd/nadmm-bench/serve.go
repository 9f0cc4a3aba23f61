package main

// The `serve` subcommand: a deterministic closed/open-loop load
// generator for the online inference subsystem. It either spins up the
// full serving stack in-process (train-or-load a model, build the
// micro-batching server, drive its batcher directly — the configuration
// used for the numbers in PERF.md) or drives a live nadmm-serve endpoint
// over HTTP with -addr.
//
// -compare runs the same load across the serving configurations — the
// pre-subsystem one-shot path, the zero-alloc batch-1 pipeline, the
// batched server, the scatter-gather router in both placement modes
// (replica-balanced and class-sharded) over in-process replicas, and
// the same two placements over real replica servers crossing the
// binary frame plane (router-*-tcp) with a metered bytes-on-wire figure
// per row — and reports every row
// plus the router's per-replica breakdown from a single run. -proba
// switches all rows to the probability path.

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"net/http"
	"runtime"
	"time"

	"newtonadmm"
	"newtonadmm/internal/control"
	"newtonadmm/internal/obs"
	"newtonadmm/internal/router"
	"newtonadmm/internal/serve"
)

func runServeBench(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		model    = fs.String("model", "", "serve this checkpoint (gob); overrides -preset")
		preset   = fs.String("preset", "mnist", "train a fresh model on this preset: higgs, mnist, cifar, e18")
		scale    = fs.Float64("scale", 0.25, "preset size multiplier for the training run")
		epochs   = fs.Int("epochs", 5, "training epochs for the fresh model")
		addr     = fs.String("addr", "", "drive a live server at this base URL (e.g. http://localhost:8080) instead of in-process")
		mode     = fs.String("mode", "closed", "load mode: closed (fixed concurrency) or open (fixed arrival rate)")
		conc     = fs.Int("concurrency", 64, "closed-loop workers / open-loop outstanding cap")
		rate     = fs.Float64("rate", 0, "open-loop arrival rate, requests/second")
		dur      = fs.Duration("duration", 5*time.Second, "measured window")
		warmup   = fs.Duration("warmup", 0, "warmup before measuring (0 = duration/10)")
		maxB     = fs.Int("max-batch", 64, "micro-batch size cap (in-process)")
		linger   = fs.Duration("linger", 200*time.Microsecond, "micro-batch flush window (in-process)")
		queue    = fs.Int("queue", 1024, "admission queue depth (in-process)")
		nRows    = fs.Int("rows", 256, "distinct request rows generated from the model shape")
		seed     = fs.Int64("seed", 1, "request-row generator seed")
		sample   = fs.Int("sample", 1, "record latency for 1 in N requests (closed loop; all requests still count)")
		proba    = fs.Bool("proba", false, "drive the probability path (/v1/proba semantics) instead of plain prediction")
		replicas = fs.Int("replicas", 2, "router replica count for the -compare router rows (class mode: shard count S)")
		perShard = fs.Int("replicas-per-shard", 1, "siblings per class shard for the in-process router-class row (R; >1 measures the replicated grid's failover-capable path)")
		compare  = fs.Bool("compare", false, "also run one-shot, batch-1, router (both modes, in-process and over the binary wire), and a mixed-priority row, and report every row")
		trace    = fs.Bool("trace", false, "print the per-stage breakdown of the slowest sampled request after each in-process row")

		admission = fs.String("admission", "none", "admission policy on the in-process rows: none, token-bucket, or cost")
		admRate   = fs.Float64("admission-rate", 0, "admission refill rate (requests/s or cost units/s)")
		admBurst  = fs.Int("admission-burst", 0, "admission burst capacity (0 = max(rate,1))")
		priority  = fs.String("priority", "", "submit every request under this service class: interactive (default), batch, or background")
	)
	fs.Parse(args)

	pri, err := control.ParsePriority(*priority)
	if err != nil {
		log.Fatal(err)
	}

	cfg := serve.LoadConfig{
		Mode: *mode, Concurrency: *conc, Rate: *rate,
		Duration: *dur, Warmup: *warmup, SampleEvery: *sample,
		Proba: *proba,
	}

	if *addr != "" {
		// Remote mode: the server's shape is whatever is running there;
		// probe /healthz for the feature count.
		target := &serve.HTTPTarget{Base: *addr, Priority: *priority}
		m, err := fetchRemoteMeta(*addr)
		if err != nil {
			log.Fatalf("probing %s: %v", *addr, err)
		}
		fmt.Printf("### serve bench — remote %s: model v%d (%d classes, %d features)\n",
			*addr, m.Version, m.Classes, m.Features)
		cfg.Classes = m.Classes
		rows := benchRows(*nRows, m.Features, *seed)
		res, err := serve.RunLoad(target, rows, cfg)
		if err != nil {
			log.Fatal(err)
		}
		printLoadResult("http", res)
		return
	}

	m := benchModel(*model, *preset, *scale, *epochs)
	cfg.Classes = m.Classes
	fmt.Printf("### serve bench — model: %d classes, %d features (solver %s)\n",
		m.Classes, m.Features, m.Solver)
	fmt.Printf("### mode=%s concurrency=%d duration=%v max-batch=%d linger=%v queue=%d proba=%v\n\n",
		*mode, *conc, *dur, *maxB, *linger, *queue, *proba)
	rows := benchRows(*nRows, m.Features, *seed)

	run := func(maxBatch int, linger time.Duration) (serve.LoadResult, obs.TraceView, bool) {
		srv, err := newtonadmm.Serve(m, newtonadmm.ServeOptions{
			MaxBatch: maxBatch, Linger: linger, QueueDepth: *queue, Workers: 0,
			Admission: *admission, AdmissionRate: *admRate, AdmissionBurst: *admBurst,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		res, err := serve.RunLoad(&serve.PriorityTarget{B: srv.Batcher(), Priority: pri}, rows, cfg)
		if err != nil {
			log.Fatal(err)
		}
		slow, ok := srv.Batcher().Recorder().TakeSlowest()
		return res, slow, ok
	}

	// runMixed measures priority isolation: an interactive closed loop
	// (the reported latency row) while a background flood hammers the
	// same batcher, optionally behind an admission policy. Returns the
	// interactive and background results.
	runMixed := func() (serve.LoadResult, serve.LoadResult) {
		srv, err := newtonadmm.Serve(m, newtonadmm.ServeOptions{
			MaxBatch: *maxB, Linger: *linger, QueueDepth: *queue, Workers: 0,
			Admission: *admission, AdmissionRate: *admRate, AdmissionBurst: *admBurst,
		})
		if err != nil {
			log.Fatal(err)
		}
		defer srv.Close()
		bgCfg := cfg
		bgCfg.Mode = "closed"
		bgDone := make(chan serve.LoadResult, 1)
		go func() {
			res, err := serve.RunLoad(&serve.PriorityTarget{B: srv.Batcher(), Priority: control.Background}, rows, bgCfg)
			if err != nil {
				log.Fatal(err)
			}
			bgDone <- res
		}()
		it, err := serve.RunLoad(&serve.PriorityTarget{B: srv.Batcher(), Priority: control.Interactive}, rows, cfg)
		if err != nil {
			log.Fatal(err)
		}
		return it, <-bgDone
	}

	// runRouter drives the scatter-gather tier in the given placement
	// mode and returns the per-replica breakdown with the result.
	runRouter := func(placement string) (serve.LoadResult, router.Stats, obs.TraceView, bool) {
		ro := newtonadmm.RouterOptions{
			Replicas: *replicas, Mode: placement,
			MaxBatch: *maxB, Linger: *linger, QueueDepth: *queue,
		}
		if placement == "class" {
			// R x S grid row: the replicated, failover-capable layout.
			ro.ReplicasPerShard = *perShard
		}
		rs, err := newtonadmm.ServeSharded(m, ro)
		if err != nil {
			log.Fatal(err)
		}
		defer rs.Close()
		res, err := serve.RunLoad(rs.Target(), rows, cfg)
		if err != nil {
			log.Fatal(err)
		}
		slow, ok := rs.Router().Recorder().TakeSlowest()
		return res, rs.Router().Stats(), slow, ok
	}

	// runRouterRemote drives the tier over real replica servers joined
	// by their frame listeners and meters bytes on the wire per request.
	runRouterRemote := func(placement string) (serve.LoadResult, router.Stats, float64) {
		var servers []*newtonadmm.ModelServer
		var joins []string
		for i := 0; i < *replicas; i++ {
			so := newtonadmm.ServeOptions{
				WireAddr: "127.0.0.1:0",
				MaxBatch: *maxB, Linger: *linger, QueueDepth: *queue,
			}
			if placement == "class" {
				so.ShardIndex, so.ShardCount = i, *replicas
			}
			ms, err := newtonadmm.Serve(m, so)
			if err != nil {
				log.Fatal(err)
			}
			servers = append(servers, ms)
			joins = append(joins, "tcp://"+ms.WireAddr())
		}
		defer func() {
			for _, ms := range servers {
				ms.Close()
			}
		}()
		rs, err := newtonadmm.ServeSharded(nil, newtonadmm.RouterOptions{Join: joins, Mode: placement})
		if err != nil {
			log.Fatal(err)
		}
		defer rs.Close()
		res, err := serve.RunLoad(rs.Target(), rows, cfg)
		if err != nil {
			log.Fatal(err)
		}
		st := rs.Router().Stats()
		var sent, recv uint64
		for _, rep := range rs.Router().Pool().Replicas() {
			if ws, ok := rep.Backend().(router.WireStats); ok {
				s, r := ws.BytesOnWire()
				sent += s
				recv += r
			}
		}
		bytesPerReq := 0.0
		if st.Requests > 0 {
			bytesPerReq = float64(sent+recv) / float64(st.Requests)
		}
		return res, st, bytesPerReq
	}

	if *compare {
		// The batched run goes first: the one-shot baseline allocates
		// per request and leaves the process with a bloated heap and GC
		// debt that would unfairly depress any phase after it. A forced
		// GC between phases keeps them independent.
		batched, batchedSlow, batchedOK := run(*maxB, *linger)
		runtime.GC()
		// Baseline 1: the same zero-alloc serving stack pinned to
		// batch-size 1 (no coalescing, no linger).
		base, baseSlow, baseOK := run(1, -1)
		runtime.GC()
		// Priority isolation: the same batched stack serving an
		// interactive closed loop while a background flood of equal
		// concurrency competes through the 16/4/1 weighted dequeue.
		mixedIt, mixedBg := runMixed()
		runtime.GC()
		// The serving fleet: replica-balanced routing over N full
		// replicas, then class-sharded partial-logit scatter-gather
		// (skipped when the model has fewer explicit classes than
		// replicas).
		routed, routedStats, routedSlow, routedOK := runRouter("replica")
		runtime.GC()
		var sharded serve.LoadResult
		var shardedStats router.Stats
		var shardedSlow obs.TraceView
		var shardedOK bool
		haveSharded := m.Classes-1 >= *replicas
		if haveSharded {
			sharded, shardedStats, shardedSlow, shardedOK = runRouter("class")
			runtime.GC()
		}
		// The remote data plane: the same placements over real replica
		// servers across the binary frame plane, bytes-on-wire metered.
		routedTCP, routedTCPStats, routedTCPBytes := runRouterRemote("replica")
		runtime.GC()
		var shardedTCP serve.LoadResult
		var shardedTCPStats router.Stats
		var shardedTCPBytes float64
		if haveSharded {
			shardedTCP, shardedTCPStats, shardedTCPBytes = runRouterRemote("class")
			runtime.GC()
		}
		// Baseline 2: batch-size-1 serving as it existed before the
		// batching subsystem — a one-shot Model.Predict per request
		// (fresh device, scorer, and staging every call).
		var oneShot serve.LoadResult
		var err error
		if *proba {
			oneShot, err = serve.RunLoad(oneShotProbaTarget{m: m}, rows, cfg)
		} else {
			oneShot, err = serve.RunLoad(oneShotTarget{m: m}, rows, cfg)
		}
		if err != nil {
			log.Fatal(err)
		}
		printLoadResult("one-shot        ", oneShot)
		printLoadResult("batch-1         ", base)
		if *trace {
			printSlowTrace(baseSlow, baseOK)
		}
		printLoadResult(fmt.Sprintf("batch-%-10d", *maxB), batched)
		if *trace {
			printSlowTrace(batchedSlow, batchedOK)
		}
		printLoadResult("mixed-pri int   ", mixedIt)
		printLoadResult("mixed-pri bg    ", mixedBg)
		printLoadResult(fmt.Sprintf("router-replica%-2d", *replicas), routed)
		printReplicaBreakdown(routedStats)
		if *trace {
			printSlowTrace(routedSlow, routedOK)
		}
		if haveSharded {
			printLoadResult(fmt.Sprintf("router-class%-4d", *replicas), sharded)
			printReplicaBreakdown(shardedStats)
			if *trace {
				printSlowTrace(shardedSlow, shardedOK)
			}
		} else {
			fmt.Printf("router-class     skipped: %d explicit classes < %d replicas\n", m.Classes-1, *replicas)
		}
		printLoadResult(fmt.Sprintf("router-replica-tcp%d ", *replicas), routedTCP)
		printReplicaBreakdown(routedTCPStats)
		printWireBytes(routedTCPBytes)
		if haveSharded {
			printLoadResult(fmt.Sprintf("router-class-tcp%d   ", *replicas), shardedTCP)
			printReplicaBreakdown(shardedTCPStats)
			printWireBytes(shardedTCPBytes)
		}
		if oneShot.Throughput > 0 {
			fmt.Printf("\nbatched vs one-shot per-request serving: %.2fx (%.0f -> %.0f req/s)\n",
				batched.Throughput/oneShot.Throughput, oneShot.Throughput, batched.Throughput)
		}
		if base.Throughput > 0 {
			fmt.Printf("batched vs zero-alloc batch-1 pipeline:  %.2fx (%.0f -> %.0f req/s)\n",
				batched.Throughput/base.Throughput, base.Throughput, batched.Throughput)
		}
		if batched.Latency.P99 > 0 {
			fmt.Printf("interactive p99 under background flood:  %v (vs %v unloaded, bg absorbed %d rejections)\n",
				mixedIt.Latency.P99, batched.Latency.P99, mixedBg.Rejected)
		}
		if batched.Throughput > 0 {
			fmt.Printf("router (replica x%d) vs single batched:   %.2fx (%.0f -> %.0f req/s)\n",
				*replicas, routed.Throughput/batched.Throughput, batched.Throughput, routed.Throughput)
			if haveSharded {
				fmt.Printf("router (class x%d) vs single batched:     %.2fx (%.0f -> %.0f req/s)\n",
					*replicas, sharded.Throughput/batched.Throughput, batched.Throughput, sharded.Throughput)
			}
		}
		return
	}
	res, slow, ok := run(*maxB, *linger)
	printLoadResult("batched ", res)
	if *trace {
		printSlowTrace(slow, ok)
	}
}

// printSlowTrace renders the slowest sampled request's per-stage
// waterfall: one line per span with its offset into the request and
// duration, then the unattributed remainder (time outside any span).
func printSlowTrace(v obs.TraceView, ok bool) {
	if !ok {
		fmt.Printf("    slowest trace: none sampled\n")
		return
	}
	fmt.Printf("    slowest trace %016x: total=%v spans=%d\n", v.ID, v.Total, len(v.Spans))
	var attributed time.Duration
	for _, sp := range v.Spans {
		leg := ""
		if sp.Leg >= 0 {
			leg = fmt.Sprintf(" leg=%d try=%d", sp.Leg, sp.Try)
		}
		fmt.Printf("      %-8s +%-12v %v%s\n", sp.Stage, sp.Start, sp.Dur, leg)
		if sp.Leg < 0 || sp.Try == 0 {
			attributed += sp.Dur
		}
	}
	if rem := v.Total - attributed; rem > 0 {
		fmt.Printf("      %-8s %v\n", "other", rem)
	}
	if v.Dropped > 0 {
		fmt.Printf("      (%d spans dropped)\n", v.Dropped)
	}
}

// oneShotTarget serves each request the way the public API did before
// the batching subsystem existed: one Model.Predict call per request,
// paying device construction, scorer setup, and staging allocation
// every time.
type oneShotTarget struct{ m *newtonadmm.Model }

func (t oneShotTarget) Predict(row []float64) (int, error) {
	out, err := t.m.Predict([][]float64{row})
	if err != nil {
		return 0, err
	}
	return out[0], nil
}

// oneShotProbaTarget is the pre-subsystem probability path.
type oneShotProbaTarget struct{ m *newtonadmm.Model }

func (t oneShotProbaTarget) Predict(row []float64) (int, error) {
	return oneShotTarget{m: t.m}.Predict(row)
}

func (t oneShotProbaTarget) Proba(row []float64, out []float64) (int, error) {
	probs, err := t.m.PredictProba([][]float64{row})
	if err != nil {
		return 0, err
	}
	copy(out, probs[0])
	return serve.ArgmaxProba(probs[0]), nil
}

// benchModel loads or trains the model to serve.
func benchModel(path, preset string, scale float64, epochs int) *newtonadmm.Model {
	if path != "" {
		m, err := newtonadmm.LoadModel(path)
		if err != nil {
			log.Fatalf("loading %s: %v", path, err)
		}
		return m
	}
	ds, err := newtonadmm.PresetDataset(preset, scale)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("training %s (scale %g, %d epochs) ...", ds.Name(), scale, epochs)
	m, err := newtonadmm.Train(ds, newtonadmm.Options{
		Epochs: epochs, Network: "none", EvalTestAccuracy: false,
	})
	if err != nil {
		log.Fatal(err)
	}
	return m
}

// benchRows generates the deterministic request-row set.
func benchRows(n, features int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, features)
		for j := range rows[i] {
			rows[i][j] = rng.NormFloat64()
		}
	}
	return rows
}

func printLoadResult(label string, r serve.LoadResult) {
	l := r.Latency
	fmt.Printf("%s  %10.0f req/s   ok=%d rejected=%d errors=%d shed=%d\n",
		label, r.Throughput, r.Done, r.Rejected, r.Errors, r.Shed)
	if r.RejectedRateLimited > 0 || r.RejectedCost > 0 {
		fmt.Printf("%s  rejections by reason: queue_full=%d rate_limited=%d cost_rejected=%d\n",
			label, r.RejectedQueueFull, r.RejectedRateLimited, r.RejectedCost)
	}
	fmt.Printf("%s  latency mean=%v p50=%v p95=%v p99=%v max=%v\n",
		label, l.Mean, l.P50, l.P95, l.P99, l.Max)
}

// printWireBytes reports the metered per-request bytes-on-wire of a
// remote data-plane row.
func printWireBytes(bytesPerReq float64) {
	fmt.Printf("    bytes on wire: %.0f B/req (binary frames, exact)\n", bytesPerReq)
}

// printReplicaBreakdown reports the router's per-replica view of the
// run: how the load spread and what each replica's scatter leg cost.
func printReplicaBreakdown(st router.Stats) {
	for _, rs := range st.Replicas {
		fmt.Printf("    replica %d [%s]: done=%d rejected=%d errors=%d  leg p50=%v p99=%v\n",
			rs.ID, rs.State, rs.Done, rs.Rejected, rs.Errors, rs.Latency.P50, rs.Latency.P99)
	}
	if st.Failovers > 0 || st.SkewRetry > 0 {
		fmt.Printf("    failovers=%d skew-retries=%d\n", st.Failovers, st.SkewRetry)
	}
}

// fetchRemoteMeta reads /healthz of a live server.
func fetchRemoteMeta(base string) (serve.ModelMeta, error) {
	var health struct {
		Model serve.ModelMeta `json:"model"`
	}
	if err := getJSON(base+"/healthz", &health); err != nil {
		return serve.ModelMeta{}, err
	}
	if health.Model.Features <= 0 {
		return serve.ModelMeta{}, fmt.Errorf("server reported no model")
	}
	return health.Model, nil
}

func getJSON(url string, v any) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}
