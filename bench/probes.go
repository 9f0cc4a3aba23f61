package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"newtonadmm/internal/admm"
	"newtonadmm/internal/baselines"
	"newtonadmm/internal/cg"
	"newtonadmm/internal/ckpt"
	"newtonadmm/internal/cluster"
	"newtonadmm/internal/core"
	"newtonadmm/internal/datasets"
	"newtonadmm/internal/device"
	"newtonadmm/internal/linalg"
	"newtonadmm/internal/linesearch"
	"newtonadmm/internal/loss"
	"newtonadmm/internal/newton"
	"newtonadmm/internal/sparse"
)

// Every probe is the median of probeCalls calls, cut short — but never
// below minProbeCalls — once the probe has used probeBudget, so that a
// 250 ms CG solve does not take five seconds of a traced run.
const (
	probeCalls    = 21
	minProbeCalls = 5
	probeBudget   = 600 * time.Millisecond
)

// timeCalls runs fn once untimed and then up to n times, returning the
// median call time.
func timeCalls(n int, fn func()) time.Duration {
	fn()
	xs := make([]float64, 0, n)
	for begin := time.Now(); len(xs) < n && (len(xs) < minProbeCalls || time.Since(begin) < probeBudget); {
		start := time.Now()
		fn()
		xs = append(xs, float64(time.Since(start)))
	}
	return time.Duration(median(xs))
}

// allocsPer is the number of heap allocations of one fn call: the mean
// over n calls rounded down, as testing.AllocsPerRun rounds it, so that a
// stray allocation on another goroutine does not read as a fraction.
func allocsPer(n int, fn func()) float64 {
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64((after.Mallocs - before.Mallocs) / uint64(n))
}

func msOf(d time.Duration) float64 { return d.Seconds() * 1e3 }
func usOf(d time.Duration) float64 { return d.Seconds() * 1e6 }

// sink keeps probe results alive so the compiler cannot drop the work.
var sink float64

// noop is the empty kernel of the launch-overhead probe.
type noop struct{}

func (noop) Run(_, _, _ int) {}

// trainProbes measures each training layer alone, at the shape of rank
// 0's shard of ds, on a one-worker device.
func (w workload) trainProbes(ds *datasets.Dataset, m *metricSet) error {
	idx := datasets.Shard(ds.TrainSize(), ranks, 0)
	y := make([]int, len(idx))
	for k, i := range idx {
		y[k] = ds.Ytrain[i]
	}
	x := ds.Xtrain.Subset(idx)
	dev := device.New("bench-probe", 1)
	defer dev.Close()
	prob, err := loss.NewSoftmax(dev, x, y, ds.Classes, 0)
	if err != nil {
		return fmt.Errorf("probe problem: %w", err)
	}
	dim, classes := prob.Dim(), ds.Classes-1
	rng := rand.New(rand.NewSource(1))
	vec := func(scale float64) []float64 {
		v := make([]float64, dim)
		for i := range v {
			v[i] = scale * rng.NormFloat64()
		}
		return v
	}
	wts, v, g, hv := vec(0.01), vec(1), make([]float64, dim), make([]float64, dim)

	// loss: value, gradient, Hessian-vector product.
	m.put("loss.value_ms", "ms", msOf(timeCalls(probeCalls, func() { sink = prob.Value(wts) })))
	m.put("loss.gradient_ms", "ms", msOf(timeCalls(probeCalls, func() { sink = prob.Gradient(wts, g) })))
	m.put("loss.allocs_per_gradient", "count", allocsPer(probeCalls, func() { sink = prob.Gradient(wts, g) }))
	h := prob.HessianAt(wts)
	m.put("loss.hv_ms", "ms", msOf(timeCalls(probeCalls, func() { h.Apply(v, hv) })))

	// linalg and sparse kernels, each on the shard in its own storage
	// format; the other format's probe runs on a converted slice of it.
	var dense *linalg.Matrix
	var csr *sparse.CSR
	switch f := x.(type) {
	case loss.Dense:
		dense = f.M
		csr = sparse.FromDense(f.M.RowSubset(datasets.Shard(min(1000, f.M.Rows), 1, 0)))
	case loss.Sparse:
		csr = f.M
		dense = f.M.RowSubset(datasets.Shard(min(128, f.M.NumRows), 1, 0)).ToDense()
	}
	scores := make([]float64, dense.Rows*classes)
	flops := 2 * float64(dense.Rows) * float64(dense.Cols) * float64(classes)
	m.put("linalg.mulnt_gflops", "GFLOP/s", flops/1e9/timeCalls(probeCalls, func() { linalg.MulNT(dense, wts, classes, scores) }).Seconds())
	m.put("linalg.multn_gflops", "GFLOP/s", flops/1e9/timeCalls(probeCalls, func() { linalg.MulTN(dense, scores, classes, g) }).Seconds())
	scores = make([]float64, csr.NumRows*classes)
	flops = 2 * float64(csr.NNZ()) * float64(classes)
	m.put("sparse.mulnt_gflops", "GFLOP/s", flops/1e9/timeCalls(probeCalls, func() { csr.MulNT(dev, wts, classes, scores) }).Seconds())
	m.put("sparse.multn_gflops", "GFLOP/s", flops/1e9/timeCalls(probeCalls, func() { csr.MulTN(dev, scores, classes, g) }).Seconds())

	machineCeilings(m)
	// A one-worker device runs its single chunk inline, so the dispatch
	// cost only exists on a device with more workers than one.
	dev2 := device.New("bench-launch", 2)
	m.put("device.launch_overhead_us", "us", usOf(timeCalls(10*probeCalls, func() { dev2.Launch(2, 1, noop{}) })))
	dev2.Close()

	// cg: one Newton-direction solve at the paper's budget (10 iterations
	// at 1e-4), against the gradient at wts.
	val := prob.Gradient(wts, g)
	dir := make([]float64, dim)
	cgOpts := cg.Options{MaxIters: 10, RelTol: 1e-4, Work: &cg.Workspace{}}
	var cgRes cg.Result
	m.put("cg.solve_ms", "ms", msOf(timeCalls(probeCalls, func() { cgRes = cg.NewtonDirection(h, g, dir, cgOpts) })))
	m.put("cg.iters", "count", float64(cgRes.Iters))

	// newton: one full step (gradient, CG, line search) on the ADMM
	// subproblem, and the objective evaluations its line search makes.
	aug := loss.NewAugmented(prob, 1, make([]float64, dim))
	xk := make([]float64, dim)
	nOpts := newton.Options{MaxIters: 1, GradTol: 1e-10, CG: cgOpts, LineSearch: linesearch.Options{MaxIters: 10}}
	m.put("newton.step_ms", "ms", msOf(timeCalls(probeCalls, func() {
		copy(xk, wts)
		newton.Solve(aug, xk, nOpts)
	})))
	ls := linesearch.Backtrack(linesearch.Objective(prob.Value, wts, dir, make([]float64, dim)),
		val, linalg.Dot(dir, g), linesearch.Options{MaxIters: 10})
	m.put("linesearch.evals", "count", float64(ls.Evals))

	// admm: the consensus update over both ranks and one spectral
	// penalty update.
	xs, ys := [][]float64{vec(1), vec(1)}, [][]float64{vec(1), vec(1)}
	z := make([]float64, dim)
	m.put("admm.update_z_us", "us", usOf(timeCalls(probeCalls, func() { admm.UpdateZ(z, xs, ys, []float64{1, 1}, w.Lambda) })))
	pol := admm.NewSpectralPenalty(1)
	st := admm.IterState{X1: xs[0], Z0: xs[1], Z1: z, Y0: ys[0], Y1: ys[1]}
	k := 0
	m.put("admm.penalty_update_us", "us", usOf(timeCalls(probeCalls, func() {
		k += 2 // the policy adapts on even iterations only
		sink = pol.Update(k, st)
	})))

	// cluster: one gather + broadcast pair at the solver's payload sizes.
	for _, tcp := range []bool{false, true} {
		d, err := gatherBcast(dim, tcp)
		if err != nil {
			return err
		}
		name := "cluster.gather_bcast_ms.inproc"
		if tcp {
			name = "cluster.gather_bcast_ms.tcp"
		}
		m.put(name, "ms", msOf(d))
	}
	return w.ckptProbe(dim, m)
}

// gatherBcast times the solver's per-epoch collective pair — a gather of
// dim+1 floats to rank 0 and a broadcast of dim floats back — as seen by
// rank 0, over in-process channels or loopback TCP. Both ranks make the
// same fixed number of calls: a count cut short on each rank's own clock
// could leave one rank calling into a peer that has already left.
func gatherBcast(dim int, tcp bool) (time.Duration, error) {
	xs := make([]float64, 0, probeCalls)
	_, err := cluster.Run(cluster.Config{Ranks: ranks, UseTCP: tcp, DeviceWorkers: 1}, func(n *cluster.Node) error {
		payload, z := make([]float64, dim+1), make([]float64, dim)
		for i := 0; i <= probeCalls; i++ { // the first pair is untimed
			start := time.Now()
			n.Gather(0, payload) // a transport error aborts Run, which returns it
			n.Bcast(0, z)
			if n.Rank() == 0 && i > 0 {
				xs = append(xs, float64(time.Since(start)))
			}
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("gather/bcast probe: %w", err)
	}
	return time.Duration(median(xs)), nil
}

// ckptProbe saves and loads a snapshot of the solver's state size under
// bench/out.
func (w workload) ckptProbe(dim int, m *metricSet) error {
	dir := filepath.Join(outDir, "ckpt-"+w.Name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	snap := &ckpt.Snapshot{Fingerprint: 7, Iter: 1, Solver: "newton-admm", Shared: make([]float64, 2*dim)}
	for r := 0; r < ranks; r++ {
		snap.Ranks = append(snap.Ranks, make([]float64, 2*dim+2))
	}
	var err error
	const calls = minProbeCalls // each save fsyncs the file and its directory
	save := timeCalls(calls, func() {
		if e := ckpt.Save(dir, snap); e != nil {
			err = e
		}
	})
	load := timeCalls(calls, func() {
		if _, e := ckpt.LoadLatest(dir, snap.Fingerprint); e != nil {
			err = e
		}
	})
	if err != nil {
		return fmt.Errorf("checkpoint probe: %w", err)
	}
	m.put("ckpt.save_ms", "ms", msOf(save))
	m.put("ckpt.load_ms", "ms", msOf(load))
	m.put("ckpt.bytes", "count", float64(len(ckpt.Encode(snap))))
	return nil
}

// machineCeilings measures, in this process and on one core, what the
// box can do: a STREAM-style copy and a loop of independent
// multiply-adds. Kernel rates are read against these. The copy arrays
// together are four times the last-level cache, capped at 256 MiB: on a
// virtual machine sysfs may report a socket-wide cache no guest owns.
func machineCeilings(m *metricSet) {
	llc := llcBytes()
	total := min(4*llc, 256<<20)
	n := total / 2 / 8
	src, dst := make([]float64, n), make([]float64, n)
	for i := range src {
		src[i] = float64(i)
	}
	d := timeCalls(5, func() { copy(dst, src) })
	fmt.Printf("# machine.copy_gbs: llc=%d B, arrays=2x%d B\n", llc, 8*n)
	m.put("machine.copy_gbs", "GB/s", 2*8*float64(n)/1e9/d.Seconds())

	const iters = 1 << 24
	d = timeCalls(5, func() { sink = fmaLoop(iters) })
	m.put("machine.fma_gflops", "GFLOP/s", 2*8*float64(iters)/1e9/d.Seconds())
	sink += dst[n/2]
}

// fmaLoop runs eight independent multiply-add chains, 16 flops per
// iteration: the scalar floating-point ceiling the pure-Go kernels live
// under.
func fmaLoop(iters int) float64 {
	a0, a1, a2, a3, a4, a5, a6, a7 := 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7
	const b, c = 0.999999, 1e-9
	for i := 0; i < iters; i++ {
		a0 = a0*b + c
		a1 = a1*b + c
		a2 = a2*b + c
		a3 = a3*b + c
		a4 = a4*b + c
		a5 = a5*b + c
		a6 = a6*b + c
		a7 = a7*b + c
	}
	return a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7
}

// referenceSolvers times GIANT on the same ranks and Newton-ADMM on one
// rank to the workload's target. They are context for time_to_target_s,
// not gated; a solver that misses the target within maxEpochs reports
// the time and epochs it ran.
func (w workload) referenceSolvers(ds *datasets.Dataset, m *metricSet) error {
	theta := w.theta(ds.TrainSize())
	start := time.Now()
	gres, err := baselines.SolveGIANT(cluster.Config{Ranks: ranks, UseTCP: w.UseTCP}, ds, baselines.GiantOptions{
		Epochs: maxEpochs, Lambda: w.Lambda, TargetObjective: theta,
	})
	if err != nil {
		return fmt.Errorf("giant: %w", err)
	}
	m.put("baselines.giant.time_to_target_s", "s", time.Since(start).Seconds())
	final, _ := gres.Trace.Final()
	m.put("baselines.giant.epochs_to_target", "count", float64(final.Epoch))

	start = time.Now()
	if _, err := core.Solve(cluster.Config{Ranks: 1}, ds, core.Options{
		Epochs: maxEpochs, Lambda: w.Lambda, TargetObjective: theta,
	}); err != nil {
		return fmt.Errorf("single-worker newton-admm: %w", err)
	}
	m.put("baselines.newton1.time_to_target_s", "s", time.Since(start).Seconds())
	return nil
}
