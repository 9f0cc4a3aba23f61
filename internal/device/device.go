// Package device provides the compute-accelerator substrate of the
// reproduction. The paper offloads the bulk data-parallel work (score
// matrices, gradients, Hessian-vector products) to Tesla P100 GPUs; this
// package substitutes a software accelerator with the same execution model:
//
//   - kernels are launched as bulk data-parallel operations over row ranges;
//   - the four products of the loss (scores, scores fused with a row
//     reduction, the fused gradient, and G = Dᵀ·A) are one launch over an
//     Operand, dense or CSR, which supplies only its row-range kernels;
//   - a persistent worker pool executes the launched kernel (no per-launch
//     goroutine spawning, mirroring a GPU's persistent execution engine and
//     keeping launch overhead at a few microseconds, the same order as a
//     real CUDA kernel launch);
//   - a per-device scratch arena pools the chunk accumulators reduction
//     kernels need, so steady-state launches perform zero heap allocation
//     (the analogue of a GPU memory pool: cudaMalloc per kernel would
//     dominate small launches exactly like make() per MulTN did here);
//   - the device keeps FLOP, byte, and launch counters so experiments can
//     report arithmetic intensity and throughput like a GPU profiler would.
//
// Solvers are written purely against this API, so swapping in a real GPU
// backend would not change any solver code — which is the property the
// substitution must preserve (see DESIGN.md). PERF.md documents the
// kernel design, the arena lifecycle, and the determinism guarantee.
package device

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"newtonadmm/internal/linalg"
)

// Kernel is a launched device program: Run is invoked once per contiguous
// chunk of the launch range. Long-lived kernel objects (the product
// kernel, the loss functors) are reused across launches so a
// steady-state launch allocates nothing; the closure-based ParallelFor
// helpers wrap ad-hoc functions for callers off the hot path.
type Kernel interface {
	// Run executes chunk `chunk`, covering rows [lo, hi).
	Run(chunk, lo, hi int)
}

// chunkFunc adapts a chunk-indexed closure to Kernel. Func values are
// pointer-shaped, so the interface conversion itself does not allocate.
type chunkFunc func(chunk, lo, hi int)

func (f chunkFunc) Run(chunk, lo, hi int) { f(chunk, lo, hi) }

// rangeFunc adapts a plain range closure to Kernel.
type rangeFunc func(lo, hi int)

func (f rangeFunc) Run(_, lo, hi int) { f(lo, hi) }

// Device is a software compute accelerator with a fixed-size worker pool.
// A Device is safe for use from a single logical stream at a time (like a
// CUDA stream); cluster ranks each own one Device. The scratch arena is
// tied to that single-stream discipline: at most one launch uses it at a
// time.
type Device struct {
	name    string
	workers int

	mu     sync.Mutex // serializes kernel launches on this device
	work   chan int   // chunk indices of the in-flight launch
	wg     sync.WaitGroup
	closed atomic.Bool

	// In-flight launch state, published to workers by the channel sends
	// (the send/receive pair orders these writes before worker reads).
	cur       Kernel
	curN      int
	curChunks int

	launches atomic.Int64
	flops    atomic.Int64
	bytes    atomic.Int64

	// Scratch arena: pooled, growable buffers keyed by launch shape
	// (chunks x size). Grow-only; steady-state launches of any
	// previously seen shape allocate nothing.
	partFlat []float64   // backing store for chunk accumulators
	parts    [][]float64 // per-chunk views into partFlat
	partials []float64   // per-chunk scalar partials for reductions

	// The product kernel, reused across launches (a parameter struct, not
	// a closure, so launching it never allocates).
	kernel productKernel
}

// Stats is a snapshot of a device's accounting counters.
type Stats struct {
	Launches int64 // kernel launches
	FLOPs    int64 // floating point operations reported by kernels
	Bytes    int64 // bytes touched reported by kernels
}

// New creates a device with the given worker count. workers <= 0 selects
// runtime.NumCPU().
func New(name string, workers int) *Device {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	d := &Device{
		name:    name,
		workers: workers,
		work:    make(chan int, workers),
	}
	for i := 0; i < workers; i++ {
		go d.worker()
	}
	return d
}

func (d *Device) worker() {
	for c := range d.work {
		n, chunks := d.curN, d.curChunks
		lo := c * n / chunks
		hi := (c + 1) * n / chunks
		d.cur.Run(c, lo, hi)
		d.wg.Done()
	}
}

// Close shuts down the worker pool. The device must not be used afterwards.
// Close is idempotent.
func (d *Device) Close() {
	if d.closed.CompareAndSwap(false, true) {
		close(d.work)
	}
}

// Closed reports whether Close has been called. The serving layer's model
// registry uses it to assert retired predictors released their devices.
func (d *Device) Closed() bool { return d.closed.Load() }

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Stats returns a snapshot of the accounting counters.
func (d *Device) Stats() Stats {
	return Stats{
		Launches: d.launches.Load(),
		FLOPs:    d.flops.Load(),
		Bytes:    d.bytes.Load(),
	}
}

func (d *Device) String() string {
	s := d.Stats()
	return fmt.Sprintf("device %s: %d workers, %d launches, %.3g GFLOP, %.3g GB",
		d.name, d.workers, s.Launches, float64(s.FLOPs)/1e9, float64(s.Bytes)/1e9)
}

// chunkCount returns how many contiguous chunks a launch over [0, n)
// with the given grain uses (the same split for every launch shape, so
// reductions are bitwise deterministic).
func (d *Device) chunkCount(n, grain int) int {
	chunks := d.workers
	if grain <= 0 {
		grain = (n + 4*d.workers - 1) / (4 * d.workers)
		if grain < 1 {
			grain = 1
		}
	}
	if maxChunks := (n + grain - 1) / grain; chunks > maxChunks {
		chunks = maxChunks
	}
	if chunks < 1 {
		chunks = 1
	}
	return chunks
}

// ChunkCount reports how many chunks a launch over [0, n) with the given
// grain will use; external reduction kernels size their partial buffers
// with it.
func (d *Device) ChunkCount(n, grain int) int {
	if n <= 0 {
		return 0
	}
	return d.chunkCount(n, grain)
}

// ScratchParts returns `chunks` scratch accumulators of `size` float64s
// each from the device arena, backed by one contiguous allocation. The
// contents are stale (kernels zero their own chunk in-parallel); the
// buffers are valid until the next ScratchParts call. The arena grows
// monotonically, so any previously seen launch shape is served without
// allocating.
func (d *Device) ScratchParts(chunks, size int) [][]float64 {
	if need := chunks * size; cap(d.partFlat) < need {
		d.partFlat = make([]float64, need)
	}
	flat := d.partFlat[:chunks*size]
	if cap(d.parts) < chunks {
		d.parts = make([][]float64, chunks)
	}
	ps := d.parts[:chunks]
	for c := range ps {
		ps[c] = flat[c*size : (c+1)*size]
	}
	return ps
}

// scratchPartials returns a pooled []float64 of per-chunk scalar partials
// (contents stale), valid until the next scratchPartials call.
func (d *Device) scratchPartials(chunks int) []float64 {
	if cap(d.partials) < chunks {
		d.partials = make([]float64, chunks)
	}
	return d.partials[:chunks]
}

// Launch executes k over [0, n) split into contiguous chunks on the
// worker pool and blocks until all chunks complete, like a synchronous
// kernel launch. The chunk split depends only on (n, grain, workers), so
// chunk-ordered reductions are bitwise deterministic across runs. Launch
// performs no heap allocation: reusing a persistent Kernel object makes
// the whole call allocation-free, which is what the hot-path kernels do.
// Returns the number of chunks.
func (d *Device) Launch(n, grain int, k Kernel) int {
	if n <= 0 {
		return 0
	}
	if d.closed.Load() {
		panic("device: kernel launch on closed device " + d.name)
	}
	d.launches.Add(1)
	chunks := d.chunkCount(n, grain)
	if chunks == 1 {
		k.Run(0, 0, n)
		return 1
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.cur, d.curN, d.curChunks = k, n, chunks
	d.wg.Add(chunks)
	for c := 0; c < chunks; c++ {
		d.work <- c
	}
	d.wg.Wait()
	d.cur = nil
	return chunks
}

// ParallelForChunks launches a kernel over [0, n) split into contiguous
// chunks; fn(chunk, lo, hi) runs on the worker pool for each chunk and
// the call blocks until all complete. The chunk index lets reduction
// kernels store partials at fixed positions so they can be combined in a
// deterministic order regardless of worker scheduling. Returns the
// number of chunks.
func (d *Device) ParallelForChunks(n, grain int, fn func(chunk, lo, hi int)) int {
	return d.Launch(n, grain, chunkFunc(fn))
}

// ParallelFor launches a kernel over [0, n): the range is split into
// roughly equal contiguous chunks (at least grain items each, grain <= 0
// selects an automatic grain) and fn(lo, hi) runs on the worker pool for
// each chunk. ParallelFor blocks until all chunks complete, like a
// synchronous kernel launch.
func (d *Device) ParallelFor(n, grain int, fn func(lo, hi int)) {
	d.Launch(n, grain, rangeFunc(fn))
}

// Operand is a design matrix the products run over: *linalg.Matrix or
// *sparse.CSR. It supplies the serial row-range kernels; the one product
// launch below owns the shape checks, chunking, panels, arena
// accumulators, chunk-order reduction and counters. W and G are
// feature-major (p×m: w[j*m+c] is class c's weight on feature j), the
// layout the solver keeps its parameters in.
type Operand interface {
	// Dims returns the number of rows n and columns p.
	Dims() (rows, cols int)
	// NNZ returns the number of stored entries (n·p when dense), which
	// the FLOP and byte counters charge per class.
	NNZ() int
	// MulNTRange writes rows [lo,hi) of S = A·Wᵀ into the n×m s.
	MulNTRange(w []float64, m int, s []float64, lo, hi int)
	// MulTNRange adds rows [lo,hi)'s contribution to G = Dᵀ·A into the
	// p×m g, where d is n×m.
	MulTNRange(d []float64, m int, g []float64, lo, hi int)
}

// columnWalker is an Operand that can walk its columns (a sparse.CSR,
// once indexed). A column walk streams all of W or G per call, so the
// launch gives the operand whole chunks, not gradPanel-row panels, and
// accumulates G through SetTNRange, which overwrites its chunk's
// accumulator, so the launch does not zero it.
type columnWalker interface {
	// ColumnIndexed reports whether the operand walks its columns.
	ColumnIndexed() bool
	// SetTNRange writes rows [lo,hi)'s contribution to G = Dᵀ·A over
	// the p×m g, where d is n×m.
	SetTNRange(d []float64, m int, g []float64, lo, hi int)
}

// gradPanel is the row-panel width of the fused gradient launch: score,
// functor, and accumulation sweeps interleave in panels of this many
// rows so each panel of A is still cache-resident when the transposed
// accumulation re-reads it (A is the only O(n·p) operand; without
// panelling it streams from memory twice per gradient). 48 rows of even
// MNIST-width features is ~300 KiB — L2-resident on anything modern.
// Over a column walker each chunk is one panel, and fn still runs on
// gradPanel-row groups, so its partial sums keep their grouping.
const gradPanel = 48

// The passes of a product launch.
const (
	scorePass = 1 << iota // S = A·Wᵀ
	accumPass             // G += Sᵀ·A, s being the D operand
)

// productKernel is the one persistent parameter block of the product
// launches. Per row panel it runs up to three passes: scores, fn over
// the fresh rows when fn is set, and accumulation. Only the fused
// gradient, which has all three, is panelled by gradPanel, and not over
// a column walker.
type productKernel struct {
	a        Operand
	passes   int
	walker   columnWalker // a when it walks columns: one panel per chunk
	w        []float64    // weights, p×m
	m        int
	s        []float64
	fn       func(lo, hi int) float64
	partials []float64
	g        []float64   // accumulator, p×m
	parts    [][]float64 // chunk accumulators; nil on the single-chunk path
}

func (k *productKernel) Run(chunk, lo, hi int) {
	dst := k.g
	if k.parts != nil {
		dst = k.parts[chunk]
		if k.walker == nil {
			linalg.Zero(dst)
		}
	}
	group := hi - lo // rows per fn call
	if k.passes == scorePass|accumPass {
		group = gradPanel
	}
	panel := group
	if k.walker != nil {
		panel = hi - lo
	}
	var sum float64
	for plo := lo; plo < hi; plo += panel {
		phi := min(plo+panel, hi)
		if k.passes&scorePass != 0 {
			k.a.MulNTRange(k.w, k.m, k.s, plo, phi)
		}
		for flo := plo; k.fn != nil && flo < phi; flo += group {
			sum += k.fn(flo, min(flo+group, phi))
		}
		if k.passes&accumPass != 0 && k.walker != nil {
			k.walker.SetTNRange(k.s, k.m, dst, plo, phi)
		} else if k.passes&accumPass != 0 {
			k.a.MulTNRange(k.s, k.m, dst, plo, phi)
		}
	}
	if k.partials != nil {
		k.partials[chunk] = sum
	}
}

// product runs the given passes of a over all its rows and returns the
// chunk-ordered sum of fn's partials; g (accumPass) is overwritten with
// the chunk parts summed in chunk order. Every operand is checked
// against a's shape here, on the caller's goroutine, before anything
// launches. A zero-row operand zeroes g, returns 0, and counts no
// launch, FLOPs or bytes.
func (d *Device) product(op string, passes int, a Operand, w []float64, m int, s []float64, fn func(lo, hi int) float64, g []float64) float64 {
	rows, cols := a.Dims()
	if passes&scorePass != 0 && len(w) != m*cols {
		panic("device: " + op + " W dimension mismatch")
	}
	if len(s) != rows*m {
		if passes == accumPass {
			panic("device: " + op + " D dimension mismatch")
		}
		panic("device: " + op + " S dimension mismatch")
	}
	if passes&accumPass != 0 && len(g) != m*cols {
		panic("device: " + op + " G dimension mismatch")
	}
	if rows == 0 {
		linalg.Zero(g)
		return 0
	}
	chunks := d.chunkCount(rows, 0)
	k := &d.kernel
	*k = productKernel{a: a, passes: passes, w: w, m: m, s: s, fn: fn, g: g}
	if cw, ok := a.(columnWalker); ok && cw.ColumnIndexed() {
		k.walker = cw
	}
	if fn != nil {
		k.partials = d.scratchPartials(chunks)
	}
	if passes&accumPass != 0 {
		if chunks > 1 {
			k.parts = d.ScratchParts(chunks, len(g))
		} else if k.walker == nil {
			linalg.Zero(g)
		}
	}
	d.Launch(rows, 0, k)
	if k.parts != nil {
		copy(g, k.parts[0])
		for _, part := range k.parts[1:] {
			linalg.Add(g, part)
		}
	}
	var total float64
	for _, p := range k.partials {
		total += p
	}
	*k = productKernel{}
	nnz := int64(a.NNZ())
	flops := 2 * nnz * int64(m) // per pass
	if passes == scorePass|accumPass {
		flops *= 2
	}
	d.flops.Add(flops)
	d.bytes.Add(8 * (nnz + int64(len(w)) + int64(len(s)) + int64(len(g))))
	return total
}

// MulNT computes S = A·Wᵀ on the device: A is n×p, w holds W p×m,
// S is n×m row-major (overwritten). This is the "scores" kernel of the
// softmax loss.
func (d *Device) MulNT(a Operand, w []float64, m int, s []float64) {
	d.product("MulNT", scorePass, a, w, m, s, nil, nil)
}

// MulNTReduce computes S = A·Wᵀ and applies fn over each row range of
// the fresh output tile in the same launch, returning the chunk-ordered
// sum of fn's partials. This is the fused score + log-sum-exp primitive:
// the softmax loss uses it to evaluate objective, residuals, and
// probabilities in one pass over S instead of a matmul launch followed by
// a second full sweep of S. fn must only touch rows [lo, hi) of S and
// must be safe to run concurrently on disjoint ranges. Passing a
// long-lived fn keeps the call allocation-free.
func (d *Device) MulNTReduce(a Operand, w []float64, m int, s []float64, fn func(lo, hi int) float64) float64 {
	return d.product("MulNTReduce", scorePass, a, w, m, s, fn, nil)
}

// FusedGradient runs S = A·Wᵀ, applies fn to each fresh row range of S
// (which may rewrite its rows in place — the residual transform), and
// accumulates G = Sᵀ·A, all in one launch that streams A once. It
// returns the chunk-ordered sum of fn's partials; G is overwritten.
// This is the single-launch gradient (and Hessian-vector) pipeline of
// the softmax loss: one pass over A and one pass over the score tile
// instead of two and three. G is bitwise identical to the unfused
// MulNT/fn/MulTN sequence (the panel split never reorders per-element
// accumulation); the returned scalar regroups fn's partials by
// gradPanel-row groups, on every operand, which is deterministic for a
// fixed worker count.
func (d *Device) FusedGradient(a Operand, w []float64, m int, s []float64, fn func(lo, hi int) float64, g []float64) float64 {
	return d.product("FusedGradient", scorePass|accumPass, a, w, m, s, fn, g)
}

// MulTN computes G = Dᵀ·A on the device: D is n×m, A is n×p, g holds
// G p×m (overwritten). Each chunk accumulates into a pooled arena buffer and
// the partials are reduced in chunk order — the standard GPU strategy
// for transposed gradient accumulation without atomics, kept bitwise
// deterministic across runs. Steady-state calls perform zero heap
// allocation.
func (d *Device) MulTN(a Operand, dmat []float64, m int, g []float64) {
	d.product("MulTN", accumPass, a, nil, m, dmat, nil, g)
}
