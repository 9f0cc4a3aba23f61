// Command nadmm-serve is the online inference server: it loads a model
// file written by nadmm-train -save (or Model.Save) and serves
// predictions over HTTP with dynamic micro-batching, bounded-queue
// backpressure, and zero-downtime model hot-swap. It can also run
// as one node of a serving fleet: a scatter-gather router over N
// predictor replicas (in-process or separate processes), or a
// class-shard replica serving a slice of the model behind such a router.
//
// Endpoints (kserve-style):
//
//	POST /v1/predict  {"instances":[[...dense...], {"indices":[...],"values":[...]}, ...]}
//	POST /v1/proba    same body; adds class probabilities
//	GET  /healthz     readiness + model metadata (+ per-replica states on a router)
//	GET  /metricz     latency quantiles, batch sizes, device counters
//	POST /v1/reload   re-read the model file and hot-swap it in (a router
//	                  coordinates the reload across all replicas)
//
// Examples:
//
//	nadmm-train -preset mnist -save model.nack
//	nadmm-serve -model model.nack -addr :8080
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/predict -d '{"instances":[[0.1, 0.2, ...]]}'
//
//	# zero-downtime deploy: retrain into the same path, then either
//	curl -s -X POST localhost:8080/v1/reload     # explicit
//	nadmm-serve -model model.nack -watch 5s       # or polled
//
//	# in-process serving fleet: 4 whole-model replicas, least-loaded routing
//	nadmm-serve -model model.nack -addr :8080 -replicas 4
//
//	# in-process class-sharded fleet: partial-logit scatter-gather
//	nadmm-serve -model model.nack -addr :8080 -replicas 2 -shard-mode class
//
//	# replicated R x S grid: 2 class shards x 2 zone-spread siblings
//	# each — any single replica death fails over to its shard sibling
//	# and is never client-visible
//	nadmm-serve -model model.nack -addr :8080 -replicas 2 -shard-mode class \
//	    -replicas-per-shard 2 -zone zone-a,zone-b
//
//	# multi-process class-sharded fleet: two shard replicas + a router.
//	# Replicas expose a binary frame listener with -wire-addr and the
//	# router joins it via tcp:// addresses; JSON is spoken to clients
//	# only (see DESIGN.md "Binary data plane")
//	nadmm-serve -model model.nack -addr :8081 -wire-addr :9081 -shard-index 0 -shard-count 2 &
//	nadmm-serve -model model.nack -addr :8082 -wire-addr :9082 -shard-index 1 -shard-count 2 &
//	nadmm-serve -addr :8080 -shard-mode class -join tcp://127.0.0.1:9081,tcp://127.0.0.1:9082
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"newtonadmm"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("nadmm-serve: ")

	var (
		model    = flag.String("model", "", "model file written by nadmm-train -save to serve (required unless -join)")
		addr     = flag.String("addr", ":8080", "listen address")
		maxBatch = flag.Int("max-batch", 64, "micro-batch size cap (rows per kernel launch)")
		linger   = flag.Duration("linger", 200*time.Microsecond, "micro-batch flush window (negative disables)")
		queue    = flag.Int("queue", 0, "admission queue depth (0 = 4*max-batch); full queue returns 429")
		workers  = flag.Int("workers", 0, "device workers (0 = NumCPU)")
		watch    = flag.Duration("watch", 0, "poll the model file at this interval and hot-swap on change (0 disables)")

		wireAddr = flag.String("wire-addr", "", "also listen here with the binary frame data plane (join it with tcp:// from a router)")

		replicas  = flag.Int("replicas", 1, "serve through a router over this many in-process replicas (>1 enables the fleet; class mode: the shard count S)")
		perShard  = flag.Int("replicas-per-shard", 1, "in-process siblings per class shard (R; >1 builds an R x S replicated grid with per-shard failover)")
		shardMode = flag.String("shard-mode", "replica", "fleet placement: replica (whole-model copies) or class (class-sharded partial logits)")
		join      = flag.String("join", "", "comma-separated replica frame-listener addresses (tcp://host:port, the replicas' -wire-addr) to route over instead of in-process replicas")

		shardIndex = flag.Int("shard-index", 0, "serve class shard N of -shard-count (replica side of a multi-process fleet)")
		shardCount = flag.Int("shard-count", 0, "total class shards; > 0 makes this server a shard replica")
		zone       = flag.String("zone", "", "failure-domain label: single server advertises it on /healthz and the wire meta; a router with in-process replicas takes a comma-separated list spread across each shard's siblings")

		sampleEvery = flag.Int("sample-every", 0, "observability sampling period: every Nth request is latency-stamped and trace-captured (0 = default 8, negative disables)")
		debug       = flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/ (exposes stack traces; opt-in)")

		admission = flag.String("admission", "none", "admission policy: none, token-bucket (requests/s), or cost (rows x features units/s)")
		admRate   = flag.Float64("admission-rate", 0, "admission refill rate (requests/s for token-bucket, cost units/s for cost)")
		admBurst  = flag.Int("admission-burst", 0, "admission burst capacity (0 = max(rate,1))")

		asMin      = flag.Int("autoscale-min", 0, "autoscaler floor (0 = the initial replica count); router with in-process replicas only")
		asMax      = flag.Int("autoscale-max", 0, "autoscaler ceiling; > 0 enables the in-process autoscaler (replica mode only)")
		asP99      = flag.Duration("autoscale-target-p99", 0, "latency target driving scale-up (0 tracks utilization only)")
		asTick     = flag.Duration("autoscale-tick", 0, "autoscaler evaluation period (0 = 1s)")
		asCooldown = flag.Duration("autoscale-cooldown", 0, "override both scale cooldowns (0 keeps the 3s up / 10s down defaults)")
	)
	flag.Parse()

	var joins []string
	if *join != "" {
		for _, a := range strings.Split(*join, ",") {
			if a = strings.TrimSpace(a); a != "" {
				joins = append(joins, a)
			}
		}
	}

	if *replicas > 1 || *perShard > 1 || len(joins) > 0 {
		if *wireAddr != "" {
			// The frame listener is a replica-side surface; silently
			// ignoring the flag would leave a router downstream dialing
			// a port nothing listens on.
			log.Fatal("-wire-addr applies to replica servers, not the router (join replicas' frame listeners with tcp:// instead)")
		}
		var zones []string
		for _, z := range strings.Split(*zone, ",") {
			if z = strings.TrimSpace(z); z != "" {
				zones = append(zones, z)
			}
		}
		runRouter(*model, newtonadmm.RouterOptions{
			Addr: *addr, Replicas: *replicas, ReplicasPerShard: *perShard, Zones: zones,
			Mode: *shardMode, Join: joins,
			MaxBatch: *maxBatch, Linger: *linger, QueueDepth: *queue, Workers: *workers,
			ModelPath: *model, SampleEvery: *sampleEvery, Debug: *debug,
			Admission: *admission, AdmissionRate: *admRate, AdmissionBurst: *admBurst,
			AutoscaleMin: *asMin, AutoscaleMax: *asMax, AutoscaleTargetP99: *asP99,
			AutoscaleTick: *asTick, AutoscaleCooldown: *asCooldown,
		})
		return
	}
	if *asMax > 0 {
		log.Fatal("-autoscale-max needs a router with in-process replicas (-replicas > 1)")
	}

	if *model == "" {
		flag.Usage()
		os.Exit(2)
	}
	m, err := newtonadmm.LoadModel(*model)
	if err != nil {
		log.Fatalf("loading %s: %v", *model, err)
	}
	log.Printf("loaded %s: %d classes, %d features (solver %s)", *model, m.Classes, m.Features, m.Solver)

	srv, err := newtonadmm.Serve(m, newtonadmm.ServeOptions{
		Addr: *addr, WireAddr: *wireAddr, MaxBatch: *maxBatch, Linger: *linger, QueueDepth: *queue,
		Workers: *workers, ModelPath: *model, Watch: *watch,
		ShardIndex: *shardIndex, ShardCount: *shardCount, Zone: *zone,
		SampleEvery: *sampleEvery, Debug: *debug,
		Admission: *admission, AdmissionRate: *admRate, AdmissionBurst: *admBurst,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	if *wireAddr != "" {
		log.Printf("binary data plane on %s (join with tcp://%s)", srv.WireAddr(), srv.WireAddr())
	}
	if *shardCount > 0 {
		log.Printf("serving class shard %d/%d on %s (max-batch %d, linger %v)",
			*shardIndex, *shardCount, srv.Addr(), *maxBatch, *linger)
	} else {
		log.Printf("serving on %s (max-batch %d, linger %v)", srv.Addr(), *maxBatch, *linger)
	}
	if *watch > 0 {
		log.Printf("watching %s every %v for hot-swap", *model, *watch)
	}

	// SIGHUP hot-swaps the model file; SIGINT/SIGTERM shut down.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM, syscall.SIGHUP)
	for s := range sig {
		if s != syscall.SIGHUP {
			log.Printf("received %v, shutting down", s)
			return
		}
		nm, err := newtonadmm.LoadModel(*model)
		if err != nil {
			log.Printf("SIGHUP reload failed: %v", err)
			continue
		}
		v, err := srv.Swap(nm)
		if err != nil {
			log.Printf("SIGHUP swap failed: %v", err)
			continue
		}
		log.Printf("SIGHUP: hot-swapped %s as model version %d", *model, v)
	}
}

// runRouter starts the scatter-gather serving tier: in-process replicas
// built from the model file, or remote replicas joined by their frame
// listeners' addresses.
func runRouter(model string, opts newtonadmm.RouterOptions) {
	var m *newtonadmm.Model
	if len(opts.Join) == 0 {
		if model == "" {
			log.Fatal("router with in-process replicas needs -model (or use -join)")
		}
		var err error
		m, err = newtonadmm.LoadModel(model)
		if err != nil {
			log.Fatalf("loading %s: %v", model, err)
		}
		log.Printf("loaded %s: %d classes, %d features (solver %s)", model, m.Classes, m.Features, m.Solver)
	}
	rs, err := newtonadmm.ServeSharded(m, opts)
	if err != nil {
		log.Fatal(err)
	}
	defer rs.Close()
	switch {
	case len(opts.Join) > 0:
		log.Printf("routing (%s mode) on %s over %d remote replicas: %s",
			opts.Mode, rs.Addr(), len(opts.Join), strings.Join(opts.Join, ", "))
	case opts.ReplicasPerShard > 1:
		log.Printf("routing (%s mode) on %s over a %dx%d in-process grid (%d shards x %d siblings)",
			opts.Mode, rs.Addr(), opts.ReplicasPerShard, opts.Replicas, opts.Replicas, opts.ReplicasPerShard)
	default:
		log.Printf("routing (%s mode) on %s over %d in-process replicas", opts.Mode, rs.Addr(), opts.Replicas)
	}
	if opts.Admission != "" && opts.Admission != "none" {
		log.Printf("admission policy %s (rate %g, burst %d)", opts.Admission, opts.AdmissionRate, opts.AdmissionBurst)
	}
	if opts.AutoscaleMax > 0 {
		log.Printf("autoscaler enabled: %d..%d replicas", opts.AutoscaleMin, opts.AutoscaleMax)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	log.Printf("received %v, shutting down", s)
}
