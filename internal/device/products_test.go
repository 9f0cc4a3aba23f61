package device_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"newtonadmm/internal/device"
	"newtonadmm/internal/linalg"
	"newtonadmm/internal/sparse"
)

// Tests for the one product launch, the scratch arena, and the
// zero-allocation guarantee of steady-state launches. Every product test
// runs on each operand kind — dense (on the lanes where the CPU has
// them), CSR with fewer stored entries than columns and with at least
// as many, and CSR indexed by column as a training shard is — on a one-
// and a three-worker device, so one and several chunk parts, from one
// row up. The launches take W and G
// feature-major; the serial references take them class-major.

// operandKinds build an operand from an n×p random matrix, which they
// leave holding the operand's dense equal (dropped entries zeroed). The
// CSR kinds' names keep the layout each shape once ran in.
var operandKinds = []struct {
	name  string
	build func(rng *rand.Rand, a *linalg.Matrix) device.Operand
}{
	{"dense", func(_ *rand.Rand, a *linalg.Matrix) device.Operand { return a }},
	{"csr-class-major", func(rng *rand.Rand, a *linalg.Matrix) device.Operand {
		return sparsify(rng, a, a.Cols-1)
	}},
	{"csr-feature-major", func(rng *rand.Rand, a *linalg.Matrix) device.Operand {
		return sparsify(rng, a, max(a.Cols, a.Rows*a.Cols/4))
	}},
	{"csr-column-indexed", func(rng *rand.Rand, a *linalg.Matrix) device.Operand {
		csr := sparsify(rng, a, max(a.Cols, a.Rows*a.Cols/4))
		csr.IndexColumns()
		return csr
	}},
}

// sparsify zeroes all but nnz random entries of a and returns them as CSR.
func sparsify(rng *rand.Rand, a *linalg.Matrix, nnz int) *sparse.CSR {
	for _, k := range rng.Perm(len(a.Data))[nnz:] {
		a.Data[k] = 0
	}
	return sparse.FromDense(a)
}

// buildFunc returns a random n×p operand of one kind and its dense equal.
type buildFunc func(n, p int) (device.Operand, *linalg.Matrix)

// eachOperand runs f for every operand kind on 1- and 3-worker devices;
// f draws its operands from build.
func eachOperand(t *testing.T, seed int64, f func(t *testing.T, dev *device.Device, build buildFunc, rng *rand.Rand)) {
	for _, kind := range operandKinds {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/%d-workers", kind.name, workers), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				dev := device.New(kind.name, workers)
				defer dev.Close()
				f(t, dev, func(n, p int) (device.Operand, *linalg.Matrix) {
					a := linalg.NewMatrixFrom(n, p, randVec(rng, n*p))
					return kind.build(rng, a), a
				}, rng)
			})
		}
	}
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// rowCount is trial+1 for the first five trials, so every row tail from
// one row up runs, and then a random count up to max.
func rowCount(rng *rand.Rand, trial, max int) int {
	if trial < 5 {
		return trial + 1
	}
	return 1 + rng.Intn(max)
}

// zeroSome zeroes a fraction of v, exercising the zero-weight skips.
func zeroSome(rng *rand.Rand, v []float64, frac float64) []float64 {
	for i := range v {
		if rng.Float64() < frac {
			v[i] = 0
		}
	}
	return v
}

// rowSum returns a row functor that sums rows [lo,hi) of the n×m s,
// scaling them by scale in place first.
func rowSum(s []float64, m int, scale float64) func(lo, hi int) float64 {
	return func(lo, hi int) float64 {
		var acc float64
		for i := lo * m; i < hi*m; i++ {
			s[i] *= scale
			acc += s[i]
		}
		return acc
	}
}

// transpose returns the rows × cols row-major x as cols × rows: class-major
// weights feature-major, or back.
func transpose(x []float64, rows, cols int) []float64 {
	t := make([]float64, len(x))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			t[c*rows+r] = x[r*cols+c]
		}
	}
	return t
}

// chunkSpans returns the row ranges of the device's launch over n rows.
func chunkSpans(dev *device.Device, n int) [][2]int {
	spans := make([][2]int, dev.ChunkCount(n, 0))
	dev.ParallelForChunks(n, 0, func(chunk, lo, hi int) { spans[chunk] = [2]int{lo, hi} })
	return spans
}

// chunkedMulTNRef is the oracle for G = Dᵀ·A: the reference loop over
// each chunk's rows from zero, the parts summed in chunk order.
func chunkedMulTNRef(dev *device.Device, a *linalg.Matrix, d []float64, m int) []float64 {
	g := make([]float64, m*a.Cols)
	part := make([]float64, len(g))
	for _, sp := range chunkSpans(dev, a.Rows) {
		clear(part)
		linalg.MulTNRangeRef(a, d, m, part, sp[0], sp[1])
		linalg.Add(g, part)
	}
	return g
}

// firstDiff returns the first index where got and want differ in bits,
// or -1.
func firstDiff(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

func TestMulNTMatchesSerial(t *testing.T) {
	eachOperand(t, 7, func(t *testing.T, dev *device.Device, build buildFunc, rng *rand.Rand) {
		for trial := 0; trial < 10; trial++ {
			n, p, m := rowCount(rng, trial, 200), 2+rng.Intn(30), 1+rng.Intn(9)
			a, dense := build(n, p)
			b := zeroSome(rng, randVec(rng, m*p), 0.1)
			got := make([]float64, n*m)
			dev.MulNT(a, transpose(b, m, p), m, got)
			want := make([]float64, n*m)
			linalg.MulNT(dense, b, m, want)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("trial %d (n=%d p=%d m=%d): MulNT differs at %d: %v vs %v", trial, n, p, m, i, got[i], want[i])
			}
		}
	})
}

// TestMulTNMatchesSerial checks G bitwise against the reference run
// chunk by chunk and summed in chunk order.
func TestMulTNMatchesSerial(t *testing.T) {
	eachOperand(t, 8, func(t *testing.T, dev *device.Device, build buildFunc, rng *rand.Rand) {
		for trial := 0; trial < 10; trial++ {
			n, p, m := rowCount(rng, trial, 200), 2+rng.Intn(30), 1+rng.Intn(9)
			a, dense := build(n, p)
			dm := zeroSome(rng, randVec(rng, n*m), []float64{0, 0.5, 0.95}[trial%3])
			got := make([]float64, m*p)
			dev.MulTN(a, dm, m, got)
			got = transpose(got, p, m)
			want := chunkedMulTNRef(dev, dense, dm, m)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("trial %d (n=%d p=%d m=%d): MulTN differs at %d: %v vs %v", trial, n, p, m, i, got[i], want[i])
			}
		}
	})
}

func TestMulNTReduceMatchesSeparatePasses(t *testing.T) {
	eachOperand(t, 41, func(t *testing.T, dev *device.Device, build buildFunc, rng *rand.Rand) {
		for trial := 0; trial < 20; trial++ {
			n, p, m := rowCount(rng, trial, 200), 2+rng.Intn(30), 1+rng.Intn(9)
			a, _ := build(n, p)
			b := randVec(rng, m*p)
			s1 := make([]float64, n*m)
			dev.MulNT(a, b, m, s1)
			// The fused launch uses the same chunk split as the
			// separate passes, so the chunk-ordered sums agree bitwise.
			var want float64
			for _, sp := range chunkSpans(dev, n) {
				want += rowSum(s1, m, 1)(sp[0], sp[1])
			}
			s2 := make([]float64, n*m)
			if got := dev.MulNTReduce(a, b, m, s2, rowSum(s2, m, 1)); got != want {
				t.Fatalf("trial %d: fused reduce %v != separate passes %v", trial, got, want)
			}
			if i := firstDiff(s2, s1); i >= 0 {
				t.Fatalf("trial %d: fused scores differ at %d: %v vs %v", trial, i, s2[i], s1[i])
			}
		}
	})
}

func TestFusedGradientMatchesUnfusedPipeline(t *testing.T) {
	eachOperand(t, 45, func(t *testing.T, dev *device.Device, build buildFunc, rng *rand.Rand) {
		for trial := 0; trial < 20; trial++ {
			n, p, m := rowCount(rng, trial, 300), 2+rng.Intn(30), 1+rng.Intn(9)
			a, _ := build(n, p)
			b := randVec(rng, m*p)
			s1 := make([]float64, n*m)
			g1 := make([]float64, m*p)
			dev.MulNTReduce(a, b, m, s1, rowSum(s1, m, 0.5))
			dev.MulTN(a, s1, m, g1)

			s2 := make([]float64, n*m)
			g2 := make([]float64, m*p)
			dev.FusedGradient(a, b, m, s2, rowSum(s2, m, 0.5), g2)
			if i := firstDiff(s2, s1); i >= 0 {
				t.Fatalf("trial %d: fused scores differ at %d: %v vs %v", trial, i, s2[i], s1[i])
			}
			// G must be bitwise identical: the panel split never
			// reorders any element's accumulation.
			if i := firstDiff(g2, g1); i >= 0 {
				t.Fatalf("trial %d: fused gradient differs at %d: %v vs %v", trial, i, g2[i], g1[i])
			}
		}
	})
}

// TestFusedGradientGroupsFnByPanel pins the fused launch's scalar: fn
// runs on 48-row groups of each chunk, summed in group then chunk order,
// on every operand, whether the launch panels it or walks a chunk whole.
func TestFusedGradientGroupsFnByPanel(t *testing.T) {
	eachOperand(t, 49, func(t *testing.T, dev *device.Device, build buildFunc, rng *rand.Rand) {
		const group = 48
		for _, n := range []int{1, 47, 48, 49, 145, 300} {
			p, m := 2+rng.Intn(30), 1+rng.Intn(9)
			a, _ := build(n, p)
			b := randVec(rng, m*p)
			s1 := make([]float64, n*m)
			dev.MulNT(a, b, m, s1)
			var want float64
			for _, sp := range chunkSpans(dev, n) {
				var part float64
				for lo := sp[0]; lo < sp[1]; lo += group {
					part += rowSum(s1, m, 1)(lo, min(lo+group, sp[1]))
				}
				want += part
			}
			s2, g := make([]float64, n*m), make([]float64, m*p)
			if got := dev.FusedGradient(a, b, m, s2, rowSum(s2, m, 1), g); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d: FusedGradient returned %v, want %v (fn grouped by %d rows)", n, got, want, group)
			}
		}
	})
}

func TestMulNTReduceDeterministicAcrossRuns(t *testing.T) {
	eachOperand(t, 42, func(t *testing.T, dev *device.Device, build buildFunc, rng *rand.Rand) {
		n, p, m := 500, 20, 4
		a, _ := build(n, p)
		b := randVec(rng, m*p)
		s := make([]float64, n*m)
		ref := dev.MulNTReduce(a, b, m, s, rowSum(s, m, 1))
		for run := 0; run < 10; run++ {
			if got := dev.MulNTReduce(a, b, m, s, rowSum(s, m, 1)); got != ref {
				t.Fatalf("run %d: MulNTReduce = %v, want %v (nondeterministic reduction)", run, got, ref)
			}
		}
	})
}

func TestMulTNDeterministicAcrossRuns(t *testing.T) {
	eachOperand(t, 43, func(t *testing.T, dev *device.Device, build buildFunc, rng *rand.Rand) {
		n, p, m := 500, 24, 5
		a, _ := build(n, p)
		dm := zeroSome(rng, randVec(rng, n*m), 0.2)
		ref := make([]float64, m*p)
		dev.MulTN(a, dm, m, ref)
		got := make([]float64, m*p)
		for run := 0; run < 10; run++ {
			dev.MulTN(a, dm, m, got)
			if i := firstDiff(got, ref); i >= 0 {
				t.Fatalf("run %d: nondeterministic MulTN at %d: %v vs %v", run, i, got[i], ref[i])
			}
		}
	})
}

func TestFusedGradientDeterministicAcrossRuns(t *testing.T) {
	eachOperand(t, 46, func(t *testing.T, dev *device.Device, build buildFunc, rng *rand.Rand) {
		n, p, m := 500, 20, 4
		a, _ := build(n, p)
		b := randVec(rng, m*p)
		s := make([]float64, n*m)
		g := make([]float64, m*p)
		ref := dev.FusedGradient(a, b, m, s, rowSum(s, m, 1), g)
		gRef := append([]float64(nil), g...)
		for run := 0; run < 5; run++ {
			if got := dev.FusedGradient(a, b, m, s, rowSum(s, m, 1), g); got != ref {
				t.Fatalf("run %d: FusedGradient partial %v, want %v", run, got, ref)
			}
			if i := firstDiff(g, gRef); i >= 0 {
				t.Fatalf("run %d: nondeterministic fused gradient at %d", run, i)
			}
		}
	})
}

func TestKernelLaunchesZeroAllocsSteadyState(t *testing.T) {
	eachOperand(t, 44, func(t *testing.T, dev *device.Device, build buildFunc, rng *rand.Rand) {
		n, p, m := 600, 32, 6
		a, _ := build(n, p)
		b := randVec(rng, m*p)
		dm := randVec(rng, n*m)
		s := make([]float64, n*m)
		g := make([]float64, m*p)
		fn := func(lo, hi int) float64 { return float64(hi - lo) }
		for _, c := range []struct {
			name string
			f    func()
		}{
			{"MulNT", func() { dev.MulNT(a, b, m, s) }},
			{"MulTN", func() { dev.MulTN(a, dm, m, g) }},
			{"MulNTReduce", func() { dev.MulNTReduce(a, b, m, s, fn) }},
			{"FusedGradient", func() { dev.FusedGradient(a, b, m, s, fn, g) }},
		} {
			if allocs := testing.AllocsPerRun(20, c.f); allocs != 0 {
				t.Fatalf("%s allocates %v per call in steady state, want 0", c.name, allocs)
			}
		}
	})
}

// TestProductShapeChecksPanicOnCaller passes each product a wrong-length
// argument on a multi-worker device: the launch must panic on the
// caller's goroutine, where it can be recovered, not inside a worker.
func TestProductShapeChecksPanicOnCaller(t *testing.T) {
	dev := device.New("shape", 3)
	defer dev.Close()
	rng := rand.New(rand.NewSource(47))
	n, p, m := 30, 5, 2
	fn := func(lo, hi int) float64 { return 0 }
	for _, kind := range operandKinds {
		a := kind.build(rng, linalg.NewMatrixFrom(n, p, randVec(rng, n*p)))
		b, s, g := make([]float64, m*p), make([]float64, n*m), make([]float64, m*p)
		bad := make([]float64, 7)
		for _, c := range []struct {
			name string
			f    func()
		}{
			{"MulNT B", func() { dev.MulNT(a, bad, m, s) }},
			{"MulNT S", func() { dev.MulNT(a, b, m, bad) }},
			{"MulNTReduce B", func() { dev.MulNTReduce(a, bad, m, s, fn) }},
			{"MulNTReduce S", func() { dev.MulNTReduce(a, b, m, bad, fn) }},
			{"FusedGradient B", func() { dev.FusedGradient(a, bad, m, s, fn, g) }},
			{"FusedGradient S", func() { dev.FusedGradient(a, b, m, bad, fn, g) }},
			{"FusedGradient G", func() { dev.FusedGradient(a, b, m, s, fn, bad) }},
			{"MulTN D", func() { dev.MulTN(a, bad, m, g) }},
			{"MulTN G", func() { dev.MulTN(a, s, m, bad) }},
		} {
			before := dev.Stats()
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: bad %s did not panic", kind.name, c.name)
					}
				}()
				c.f()
			}()
			if dev.Stats() != before {
				t.Errorf("%s: bad %s counted work", kind.name, c.name)
			}
		}
		dev.MulNT(a, b, m, s) // the device still launches
	}
}

// TestZeroRowOperandDoesNothing pins the empty-shard outcome (a rank
// with no samples): every product returns 0, zeroes G, and leaves the
// launch, FLOP and byte counters unchanged.
func TestZeroRowOperandDoesNothing(t *testing.T) {
	dev := device.New("empty", 3)
	defer dev.Close()
	p, m := 6, 3
	empty := linalg.NewMatrix(0, p)
	fn := func(lo, hi int) float64 { return 1 }
	for name, a := range map[string]device.Operand{"dense": empty, "csr": sparse.FromDense(empty)} {
		b, g := randVec(rand.New(rand.NewSource(48)), m*p), make([]float64, m*p)
		before := dev.Stats()
		dev.MulNT(a, b, m, nil)
		if got := dev.MulNTReduce(a, b, m, nil, fn); got != 0 {
			t.Errorf("%s: MulNTReduce = %v, want 0", name, got)
		}
		for _, product := range []func(){
			func() {
				if got := dev.FusedGradient(a, b, m, nil, fn, g); got != 0 {
					t.Errorf("%s: FusedGradient = %v, want 0", name, got)
				}
			},
			func() { dev.MulTN(a, nil, m, g) },
		} {
			for i := range g {
				g[i] = math.NaN()
			}
			product()
			for i, v := range g {
				if math.Float64bits(v) != 0 {
					t.Fatalf("%s: G[%d] = %v, want +0", name, i, v)
				}
			}
		}
		if after := dev.Stats(); after != before {
			t.Errorf("%s: counters moved from %+v to %+v", name, before, after)
		}
	}
}

func TestScratchPartsPooled(t *testing.T) {
	d := device.New("arena", 4)
	defer d.Close()
	parts := d.ScratchParts(3, 100)
	if len(parts) != 3 || len(parts[0]) != 100 {
		t.Fatalf("ScratchParts shape = %dx%d, want 3x100", len(parts), len(parts[0]))
	}
	first := &parts[0][0]
	// Same shape again: must reuse the same backing store.
	parts2 := d.ScratchParts(3, 100)
	if &parts2[0][0] != first {
		t.Fatal("ScratchParts reallocated for an already-seen shape")
	}
	// Smaller shape: still served from the same arena.
	parts3 := d.ScratchParts(2, 50)
	if &parts3[0][0] != first {
		t.Fatal("ScratchParts reallocated for a smaller shape")
	}
	// Larger shape grows the arena.
	parts4 := d.ScratchParts(4, 200)
	if len(parts4) != 4 || len(parts4[0]) != 200 {
		t.Fatalf("ScratchParts growth shape = %dx%d, want 4x200", len(parts4), len(parts4[0]))
	}
}
