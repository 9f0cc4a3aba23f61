package main

import (
	"fmt"
	"maps"
	"math"
	"net/http"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	nadmm "newtonadmm"
	"newtonadmm/internal/datasets"
)

// A run is one untimed round and then rounds timed ones. A round sets up
// (dataset; for a serving workload also the training solve and the fleet)
// and then measures for a fifth of the window: solves, or one slice of
// traffic. Every metric is the median over the rounds' samples, so that a
// slow spell of the host shorter than half the run cannot move any of
// them; set-ups and solves bunched at the start of a run could all fall
// into one spell. The untimed round is there because a fresh process on
// this kind of virtual machine runs memory-bound code at about half speed
// for its first second or two.
const rounds = 5

// staged is what set-up leaves behind for the measured window.
type staged struct {
	ds    *datasets.Dataset
	fleet *fleet // serve focus only
}

func (st staged) close() {
	if st.fleet != nil {
		st.fleet.close()
	}
}

// setup generates the dataset and, for a serving workload, trains the
// model to the workload's target and starts the fleet. The solve goes
// into train so that the serving workloads report the training metrics
// of their own set-up.
func (w workload) setup(seed int64, train *trainSamples) (staged, error) {
	ds, err := w.buildDataset(seed)
	if err != nil {
		return staged{}, err
	}
	st := staged{ds: ds}
	if w.Focus != "serve" {
		return st, nil
	}
	r := w.solve(ds, nil)
	train.add(ds, r)
	if r.Err != nil {
		return staged{}, fmt.Errorf("set-up solve: %w", r.Err)
	}
	st.fleet, err = startFleet(modelOf(ds, r.Z), 0)
	return st, err
}

func modelOf(ds *datasets.Dataset, z []float64) *nadmm.Model {
	return &nadmm.Model{Weights: z, Classes: ds.Classes, Features: ds.NumFeatures(), Solver: nadmm.SolverNewtonADMM}
}

// runEndToEnd is the untraced pass: every end_to_end metric of
// BENCHMARK.json, nothing wrapped, nothing recorded.
func (w workload) runEndToEnd(seed int64, seconds float64) (result, error) {
	m := newMetricSet()
	budget := time.Duration(seconds / rounds * float64(time.Second))
	var (
		train   trainSamples
		traffic trafficSamples
		setupS  []float64
		last    *datasets.Dataset
	)
	for r := 0; r <= rounds; r++ {
		start := time.Now()
		st, err := w.setup(seed, &train)
		if err != nil {
			return result{}, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if w.Focus == "train" {
			// At least one solve a round, then as many more as fit.
			for begin := time.Now(); train.Failed == 0; {
				train.add(st.ds, w.solve(st.ds, nil))
				if time.Since(begin)+train.Last.Wall > budget {
					break
				}
			}
		} else if err := w.traffic(st, seed, r, budget, &traffic); err != nil {
			st.close()
			return result{}, err
		}
		st.close()
		if r == 0 { // the untimed round
			train, traffic, setupS = trainSamples{}, trafficSamples{}, nil
		}
		if r == rounds {
			last = st.ds // test accuracy is scored on it below
			break
		}
		// Collect the round's dataset now, untimed: left to the collector's
		// own schedule it is freed during the next round's set-up or not,
		// and peak_rss_mb differs by a dataset from run to run.
		runtime.GC()
	}
	if len(train.Wall) == 0 {
		return result{}, fmt.Errorf("no solve reached the target: %v (objective %g after %d epochs)", train.Last.Err, train.Last.FinalObj, train.Last.Epochs)
	}
	acc, err := testAccuracy(last, train.Last.Z)
	if err != nil {
		return result{}, err
	}
	if acc < w.AccFloor || !train.sameCounts() {
		train.Failed++
	}
	train.metrics(m, acc)
	fmt.Printf("# solves: %d timed, %d failed, epochs %v, weights hash %016x\n# solve wall s: %.3f\n# solve cpu s: %.3f\n", len(train.Wall), train.Failed, train.Epochs, train.Hashes[0], train.Wall, train.CPU)

	res := result{}
	if w.Focus == "train" {
		// One solve is one operation, so the operation-side metrics are
		// the solve's own figures in request units. A run has too few
		// solves for a tail: both latencies are time_to_target_s.
		m.put("latency_p50_ms", "ms", typical(train.Wall)*1e3)
		m.put("latency_p90_ms", "ms", typical(train.Wall)*1e3)
		m.put("cpu_ms_per_req", "ms", typical(train.CPU)*1e3)
		m.put("throughput_rows_s", "1/s", quantile(train.RowsPerS, 0.75)) // the rate of the lower-quartile wall time
		res.Attempted, res.Failed = train.Attempted, train.Failed
	} else {
		traffic.metrics(m)
		res.Attempted, res.Failed = traffic.Attempted, traffic.Failed+train.Failed
	}
	fmt.Printf("# set-up s: %.3f\n", setupS)
	m.put("setup_s", "s", typical(setupS)) // a serving set-up is mostly its solve
	m.put("peak_rss_mb", "MB", peakRSSMB())
	m.print()
	res.Correct, res.Metrics = res.Failed == 0, m.vals
	return res, nil
}

// trafficSamples collects one sample of each client-observed metric per
// round's slice of traffic.
type trafficSamples struct {
	P50, Tail, CPUPerReq, RowsPerS []float64
	Attempted, Failed              int
	FirstErr                       error
}

// traffic sends round r's slice of the workload's traffic at the staged
// fleet: a short untimed warm-up on the new fleet's connections, then d
// of measured requests.
func (w workload) traffic(st staged, seed int64, r int, d time.Duration, into *trafficSamples) error {
	pool := requestRows(st.ds, seed)
	oracle, err := st.fleet.oracle(pool)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	g := newLoadgen(st.fleet, w, pool, oracle, nil)
	defer g.close()
	// Every slice and every warm-up of every seed has a schedule of its
	// own.
	own := seed*2*(rounds+1) + int64(2*r)
	g.run(w.scheduleFor(own+1, d/8), d/8)
	win := g.run(w.scheduleFor(own, d), d)
	into.Attempted += win.Sent + win.Unsent
	into.Failed += win.Failed + win.Unsent
	if into.FirstErr == nil {
		into.FirstErr = win.FirstErr
	}
	if len(win.Latency) == 0 {
		return fmt.Errorf("no request completed: %v", win.FirstErr)
	}
	tailMs, level := tail(win.Latency, 0.90)
	fmt.Printf("# slice %d: %.2fs, %d sent, %d failed, %d unsent; latency ms p50 %.3f p%g %.3f p95 %.3f p99 %.3f max %.3f\n", r, win.Seconds, win.Sent, win.Failed, win.Unsent,
		median(win.Latency), level*100, tailMs, quantile(win.Latency, 0.95), quantile(win.Latency, 0.99), quantile(win.Latency, 1))
	into.P50 = append(into.P50, median(win.Latency))
	into.Tail = append(into.Tail, tailMs)
	into.CPUPerReq = append(into.CPUPerReq, msOf(win.CPU)/float64(len(win.Latency)))
	into.RowsPerS = append(into.RowsPerS, float64(win.Rows)/win.Seconds)
	return nil
}

// metrics fills the client-observed end-to-end metrics: each the median
// of the slices' figures.
func (t *trafficSamples) metrics(m *metricSet) {
	fmt.Printf("# traffic: %d slices, %d requests, %d failed, first error: %v\n", len(t.P50), t.Attempted, t.Failed, t.FirstErr)
	m.put("latency_p50_ms", "ms", median(t.P50))
	m.put("latency_p90_ms", "ms", median(t.Tail))
	m.put("cpu_ms_per_req", "ms", median(t.CPUPerReq))
	m.put("throughput_rows_s", "1/s", median(t.RowsPerS))
}

// runTraced is the per-layer pass: one traced solve and one traced traffic
// window with the layers' own counters read around them, plus a probe of
// each layer alone at this workload's shapes. Every per_layer metric of
// BENCHMARK.json comes from here.
func (w workload) runTraced(seed int64, seconds float64) (result, error) {
	m := newMetricSet()
	tr := newTracer()
	res := result{}
	fail := func(format string, args ...any) {
		res.Failed++
		fmt.Printf("# FAILED: "+format+"\n", args...)
	}

	// Training ladder.
	start := time.Now()
	ds, err := w.buildDataset(seed)
	if err != nil {
		return result{}, err
	}
	m.put("datasets.generate_s", "s", time.Since(start).Seconds())
	w.solve(ds, nil) // warm-up, so that the two timed solves start alike
	plain := w.solve(ds, nil)
	traced := w.solve(ds, tr)
	res.Attempted += 2
	for _, r := range []solveResult{plain, traced} {
		if r.Err != nil {
			return result{}, fmt.Errorf("solve: %w", r.Err)
		}
		if !r.Reached {
			fail("solve stopped at objective %g after %d epochs", r.FinalObj, r.Epochs)
		}
	}
	if plain.Hash != traced.Hash || plain.Epochs != traced.Epochs {
		fail("traced solve diverged: %016x after %d epochs, untraced %016x after %d", traced.Hash, traced.Epochs, plain.Hash, plain.Epochs)
	}
	if !traced.rungs(m) {
		fail("rank spans do not reconcile with the solve's wall time")
	}
	if err := w.trainProbes(ds, m); err != nil {
		return result{}, err
	}
	if err := w.referenceSolvers(ds, m); err != nil {
		return result{}, err
	}

	// Serving ladder, on the weights just trained.
	f, err := startFleet(modelOf(ds, traced.Z), 0)
	if err != nil {
		return result{}, err
	}
	defer f.close()
	pool := requestRows(ds, seed)
	oracle, err := f.oracle(pool)
	if err != nil {
		return result{}, fmt.Errorf("oracle: %w", err)
	}
	window := 3 * time.Second
	if w.Focus == "serve" {
		window = time.Duration(seconds * 0.4 * float64(time.Second))
	}
	quiet := newLoadgen(f, w, pool, oracle, nil)
	defer quiet.close()
	base := quiet.run(w.scheduleFor(seed+1, window/2), window/2) // warm-up, and the untraced reference
	g := newLoadgen(f, w, pool, oracle, tr)
	defer g.close()
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	r0, err := f.scrape(hc)
	if err != nil {
		return result{}, err
	}
	sched := w.scheduleFor(seed, window)
	win := g.run(sched, window)
	r1, err := f.scrape(hc)
	if err != nil {
		return result{}, err
	}
	res.Attempted += win.Sent + win.Unsent
	res.Failed += win.Failed + win.Unsent
	if len(win.Latency) == 0 || len(base.Latency) == 0 {
		return result{}, fmt.Errorf("no request completed: %v", win.FirstErr)
	}
	fmt.Printf("# traced window: %.2fs, %d sent, %d failed, %d unsent, first error: %v\n", win.Seconds, win.Sent, win.Failed, win.Unsent, win.FirstErr)
	p95, level95 := tail(win.Latency, 0.95)
	p99, level99 := tail(win.Latency, 0.99)
	fmt.Printf("# client.latency_p95_ms and _p99_ms reported at p%g and p%g of %d requests\n", level95*100, level99*100, len(win.Latency))
	m.put("client.latency_p95_ms", "ms", p95)
	m.put("client.latency_p99_ms", "ms", p99)
	m.put("client.encode_us", "us", median(win.Encode))
	m.put("client.http_us", "us", median(win.HTTP))
	m.put("client.decode_us", "us", median(win.Decode))
	lateP99, _ := tail(win.Late, 0.99)
	m.put("loadgen.late_p99_ms", "ms", lateP99)
	m.put("loadgen.sent", "count", float64(win.Sent))
	m.put("loadgen.backlog_max", "count", float64(win.BacklogMx))
	fleetRungs(m, r0, r1)
	if err := w.serveProbes(f, pool, sched.Rows[0], median(win.Latency)*1e3, m); err != nil {
		return result{}, err
	}

	// The cost of watching: the fleet's own sampling at every request
	// against the shipped default, and this harness's spans against none.
	every, err := startFleet(f.model, 1)
	if err != nil {
		return result{}, err
	}
	ge := newLoadgen(every, w, pool, oracle, nil)
	short := window / 3
	ge.run(w.scheduleFor(seed+1, short/2), short/2)
	watched := ge.run(w.scheduleFor(seed+2, short), short)
	ge.close()
	every.close()
	unwatched := quiet.run(w.scheduleFor(seed+2, short), short)
	if len(watched.Latency) == 0 || len(unwatched.Latency) == 0 {
		return result{}, fmt.Errorf("no request completed in the sampling windows: %v %v", watched.FirstErr, unwatched.FirstErr)
	}
	m.put("obs.overhead_pct", "%", 100*(median(watched.Latency)/median(unwatched.Latency)-1))
	overhead := traced.Wall.Seconds()/plain.Wall.Seconds() - 1
	if w.Focus == "serve" {
		overhead = median(win.Latency)/median(base.Latency) - 1
	}
	m.put("trace.overhead_pct", "%", 100*overhead)

	spans := tr.snapshot()
	path := filepath.Join(outDir, w.Name+".trace.jsonl")
	if err := writeSpans(path, spans); err != nil {
		return result{}, err
	}
	fmt.Printf("# %d spans written to %s; self time by span name (ms):\n", len(spans), path)
	self := selfByName(spans)
	for _, name := range slices.Sorted(maps.Keys(self)) {
		fmt.Printf("#   %-16s %12.3f\n", name, self[name])
	}
	m.print()
	for name, v := range m.vals {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return result{}, fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	res.Correct, res.Metrics = res.Failed == 0, m.vals
	return res, nil
}
