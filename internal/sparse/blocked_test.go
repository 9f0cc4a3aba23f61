package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"newtonadmm/internal/device"
	"newtonadmm/internal/linalg"
)

// Property tests for the CSR kernels, which take W and G feature-major,
// against the retained class-major naive references (bitwise, layouts
// converted), plus the device's product launch on CSR operands, on every
// path: the AVX2 lanes and the Go passes, each walking rows and walking
// columns. internal/device tests that launch over every operand kind.

// columns is set on eachPath's column-walk paths, where index builds a
// matrix's column index.
var columns bool

// eachPath runs f on the Go passes ("fallback") and, where the CPU has
// them, on the lanes, each over matrices that index leaves as they are
// ("rows") and that it indexes by column ("columns"), with the lanes
// test hook and columns set accordingly.
func eachPath(t *testing.T, f func(t *testing.T)) {
	paths := []bool{false}
	if linalg.LanesSupported() {
		paths = append(paths, true)
	}
	for _, on := range paths {
		name := "fallback"
		if on {
			name = "lanes"
		}
		t.Run(name, func(t *testing.T) {
			for _, walk := range []bool{false, true} {
				t.Run(map[bool]string{false: "rows", true: "columns"}[walk], func(t *testing.T) {
					defer func(was bool) { lanes = was }(lanes)
					defer func(was bool) { columns = was }(columns)
					lanes, columns = on, walk
					f(t)
				})
			}
		})
	}
}

// index builds a's column index on the column-walk paths and checks it
// exists exactly when every value is finite and every row's columns
// increase inside the matrix. a must not be written afterwards.
func index(t *testing.T, a *CSR) *CSR {
	t.Helper()
	if !columns {
		return a
	}
	a.IndexColumns()
	valid := allFinite(a.Val)
	for i := range a.NumRows {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.Col[k]
			valid = valid && j >= 0 && j < a.NumCols && (k == a.RowPtr[i] || j > a.Col[k-1])
		}
	}
	if a.ColumnIndexed() != valid {
		t.Fatalf("column index built = %v, want %v", a.ColumnIndexed(), valid)
	}
	return a
}

// maxM is the largest class count the property tests draw: two wide
// lane passes and a narrow one, and every mix of the Go passes.
const maxM = 41

func randCSR(rng *rand.Rand, rows, cols int, density float64) *CSR {
	return FromDense(randSparseDense(rng, rows, cols, density))
}

func randWeights(rng *rand.Rand, n int, zeroFrac float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Float64() >= zeroFrac {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// m up to maxM covers every mix of the wide and narrow lane passes and
// of the six-, three- and one-class Go passes; n from 1 covers one-row
// products, and density 0.3 over p from 1 leaves rows with no nonzeros.
func TestCSRBlockedMulNTBitwiseMatchesRef(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(201))
		for trial := 0; trial < 200; trial++ {
			n, p, m := 1+rng.Intn(30), 1+rng.Intn(40), 1+rng.Intn(maxM)
			if trial < maxM {
				n, m = 1, trial+1
			}
			a := index(t, randCSR(rng, n, p, 0.3))
			b := randWeights(rng, m*p, 0.1)
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo) + 1
			checkMulNT(t, a, b, m, lo, hi)
		}
	})
}

func TestCSRBlockedMulTNBitwiseMatchesRef(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(202))
		for trial := 0; trial < 200; trial++ {
			n, p, m := 1+rng.Intn(30), 1+rng.Intn(40), 1+rng.Intn(maxM)
			if trial < maxM {
				n, m = 1, trial+1
			}
			a := randCSR(rng, n, p, 0.3)
			// Exercise the zero-weight skip, down to rows that are mostly zero;
			// an infinite entry makes skipping observable (0·Inf is NaN).
			d := randWeights(rng, n*m, []float64{0, 0.4, 0.9}[trial%3])
			if a.NNZ() > 0 && trial%4 == 0 {
				a.Val[rng.Intn(a.NNZ())] = math.Inf(1)
			}
			index(t, a)
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo) + 1
			checkMulTN(t, a, d, m, lo, hi)
		}
	})
}

// TestCSRLanesEdgeRows pins the rows the random draws may miss, at the
// class counts either side of one wide lane pass (m = 19 is E18's C − 1):
// rows and columns with no nonzeros, one-row ranges, −0 weights, and a
// zero weight next to an infinite or NaN value, where only axpySkip
// matches the reference's skip. The matrix with those values gets no
// column index; its finite twin, on the column paths, does.
func TestCSRLanesEdgeRows(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(208))
		for _, m := range []int{1, 4, 5, 15, 16, 17, 19, 20, 21, 36, 40, 41} {
			n, p := 6, 50
			dense := randSparseDense(rng, n, p, 0.2)
			clear(dense.Row(1)) // a row with no nonzeros
			for i := range n {
				dense.Set(i, 3, 0) // a column with none
			}
			finite := index(t, FromDense(dense))
			dense.Set(2, 7, math.Inf(-1))
			dense.Set(4, 9, math.NaN())
			a := index(t, FromDense(dense))
			b := randWeights(rng, m*p, 0.2)
			b[(m/2)*p+7] = math.Copysign(0, -1)
			d := randWeights(rng, n*m, 0.2)
			for i := range n {
				d[i*m+rng.Intn(m)] = 0
				d[i*m+rng.Intn(m)] = math.Copysign(0, -1)
			}
			d[5*m] = math.Inf(1) // an infinite weight
			for _, a := range []*CSR{a, finite} {
				for lo := range n {
					checkMulNT(t, a, b, m, lo, lo+1)
					checkMulTN(t, a, d, m, lo, lo+1)
				}
				checkMulNT(t, a, b, m, 0, n)
				checkMulTN(t, a, d, m, 0, n)
			}
		}
	})
}

// TestCSRColumnOutsideMatrixPanics: a column index outside [0, NumCols)
// panics on either path (the lane kernels check each index) instead of
// reading or writing outside W or G.
func TestCSRColumnOutsideMatrixPanics(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		for _, bad := range []int{3, -1} {
			a := index(t, &CSR{NumRows: 1, NumCols: 3, RowPtr: []int{0, 2}, Col: []int{0, bad}, Val: []float64{1, 2}})
			for _, m := range []int{2, 19} {
				for name, f := range map[string]func(){
					"MulNT": func() { a.MulNTRange(make([]float64, 3*m), m, make([]float64, m), 0, 1) },
					"MulTN": func() { a.MulTNRange(slices.Repeat([]float64{1}, m), m, make([]float64, 3*m), 0, 1) },
				} {
					func() {
						defer func() {
							if recover() == nil {
								t.Fatalf("m=%d: %s with column %d of 3 did not panic", m, name, bad)
							}
						}()
						f()
					}()
				}
			}
		}
	})
}

// checkMulNT compares MulNTRange on rows [lo,hi) with mulNTRangeRef,
// class-major b laid out feature-major.
func checkMulNT(t *testing.T, a *CSR, b []float64, m, lo, hi int) {
	t.Helper()
	n, p := a.Dims()
	want := make([]float64, n*m)
	a.mulNTRangeRef(b, m, want, lo, hi)
	got := make([]float64, n*m)
	a.MulNTRange(transpose(b, m, p), m, got, lo, hi)
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("n=%d p=%d m=%d rows [%d,%d): CSR MulNT differs at %d: %v vs %v",
			n, p, m, lo, hi, i, got[i], want[i])
	}
}

// checkMulTN compares MulTNRange on rows [lo,hi) with mulTNRangeRef, the
// feature-major G converted back; on an indexed matrix SetTNRange, which
// must overwrite every row of a G full of NaN.
func checkMulTN(t *testing.T, a *CSR, d []float64, m, lo, hi int) {
	t.Helper()
	n, p := a.Dims()
	want := make([]float64, m*p)
	a.mulTNRangeRef(d, m, want, lo, hi)
	gt := make([]float64, m*p)
	if a.ColumnIndexed() {
		for i := range gt {
			gt[i] = math.NaN()
		}
		a.SetTNRange(d, m, gt, lo, hi)
	} else {
		a.MulTNRange(d, m, gt, lo, hi)
	}
	got := transpose(gt, p, m)
	if i := firstDiff(got, want); i >= 0 {
		t.Fatalf("n=%d p=%d m=%d rows [%d,%d): CSR MulTN differs at %d: %v vs %v",
			n, p, m, lo, hi, i, got[i], want[i])
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

// firstDiff returns the first index where got and want differ in bits, or
// -1 (NaN compares by its bits too).
func firstDiff(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// chunkedMulTNRef is the device-level oracle for G = Dᵀ·A: the reference
// loop over each chunk's rows from zero, the parts summed in chunk order.
func chunkedMulTNRef(dev *device.Device, a *CSR, d []float64, m int) []float64 {
	type span struct{ lo, hi int }
	spans := make([]span, dev.ChunkCount(a.NumRows, 0))
	dev.ParallelForChunks(a.NumRows, 0, func(chunk, lo, hi int) { spans[chunk] = span{lo, hi} })
	g := make([]float64, m*a.NumCols)
	part := make([]float64, len(g))
	for _, sp := range spans {
		clear(part)
		a.mulTNRangeRef(d, m, part, sp.lo, sp.hi)
		for i, v := range part {
			g[i] += v
		}
	}
	return g
}

// TestCSRProductsBitwiseMatchChunkedRef runs the four public products on
// shapes either side of NNZ == NumCols, on one-, two- and three-worker
// devices (so one and several chunk parts, a column walk narrowed to
// each), against the reference loops: S row by row, G through
// chunkedMulTNRef, with the layouts converted.
func TestCSRProductsBitwiseMatchChunkedRef(t *testing.T) {
	eachPath(t, testCSRProductsBitwiseMatchChunkedRef)
}

func testCSRProductsBitwiseMatchChunkedRef(t *testing.T) {
	rng := rand.New(rand.NewSource(207))
	for _, workers := range []int{1, 2, 3} {
		dev := device.New("csr-chunked", workers)
		sides := map[bool]int{}
		for trial := 0; trial < 60; trial++ {
			n, p, m := 1+rng.Intn(80), 1+rng.Intn(60), 1+rng.Intn(maxM)
			a := index(t, randCSR(rng, n, p, []float64{0.01, 0.05, 0.3}[trial%3]))
			sides[a.NNZ() >= p]++
			b := randWeights(rng, m*p, 0.1)
			bt := transpose(b, m, p)
			d := randWeights(rng, n*m, []float64{0, 0.5, 0.95}[trial%3])
			halve := func(s []float64) func(lo, hi int) float64 {
				return func(lo, hi int) float64 {
					for i := lo * m; i < hi*m; i++ {
						s[i] *= 0.5
					}
					return 0
				}
			}

			wantS := make([]float64, n*m)
			a.mulNTRangeRef(b, m, wantS, 0, n)
			s := make([]float64, n*m)
			a.MulNT(dev, bt, m, s)
			if i := firstDiff(s, wantS); i >= 0 {
				t.Fatalf("workers %d trial %d (n=%d p=%d m=%d nnz=%d): MulNT differs at %d", workers, trial, n, p, m, a.NNZ(), i)
			}
			clear(s)
			dev.MulNTReduce(a, bt, m, s, halve(s))
			halve(wantS)(0, n)
			if i := firstDiff(s, wantS); i >= 0 {
				t.Fatalf("workers %d trial %d: MulNTReduce differs at %d", workers, trial, i)
			}

			g := make([]float64, m*p)
			a.MulTN(dev, d, m, g)
			if i := firstDiff(transpose(g, p, m), chunkedMulTNRef(dev, a, d, m)); i >= 0 {
				t.Fatalf("workers %d trial %d (n=%d p=%d m=%d nnz=%d): MulTN differs at %d", workers, trial, n, p, m, a.NNZ(), i)
			}

			clear(s)
			dev.FusedGradient(a, bt, m, s, halve(s), g)
			if i := firstDiff(s, wantS); i >= 0 {
				t.Fatalf("workers %d trial %d: FusedGradient scores differ at %d", workers, trial, i)
			}
			if i := firstDiff(transpose(g, p, m), chunkedMulTNRef(dev, a, wantS, m)); i >= 0 {
				t.Fatalf("workers %d trial %d: FusedGradient G differs at %d", workers, trial, i)
			}
		}
		dev.Close()
		if sides[true] == 0 || sides[false] == 0 {
			t.Fatalf("workers %d: trials covered only one side of NNZ == NumCols: %v", workers, sides)
		}
	}
}

// chunkOrderSum is the oracle for a fused reduction: fn over each of the
// device's chunks, the partial results summed in chunk order.
func chunkOrderSum(dev *device.Device, n int, fn func(lo, hi int) float64) float64 {
	parts := make([]float64, dev.ChunkCount(n, 0))
	dev.ParallelForChunks(n, 0, func(chunk, lo, hi int) { parts[chunk] = fn(lo, hi) })
	var acc float64
	for _, v := range parts {
		acc += v
	}
	return acc
}

func TestCSRMulNTReduceMatchesSeparatePasses(t *testing.T) {
	dev := device.New("csr-fused", 4)
	defer dev.Close()
	rng := rand.New(rand.NewSource(203))
	for trial := 0; trial < 20; trial++ {
		n, p, m := 1+rng.Intn(60), 1+rng.Intn(30), 1+rng.Intn(9)
		a := randCSR(rng, n, p, 0.4)
		b := randWeights(rng, m*p, 0)
		s1 := make([]float64, n*m)
		a.MulNT(dev, b, m, s1)
		want := chunkOrderSum(dev, n, func(lo, hi int) float64 {
			var acc float64
			for i := lo * m; i < hi*m; i++ {
				acc += s1[i]
			}
			return acc
		})
		s2 := make([]float64, n*m)
		got := dev.MulNTReduce(a, b, m, s2, func(lo, hi int) float64 {
			var acc float64
			for i := lo * m; i < hi*m; i++ {
				acc += s2[i]
			}
			return acc
		})
		if got != want {
			t.Fatalf("trial %d: fused reduce %v != separate passes %v", trial, got, want)
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("trial %d: fused scores differ at %d", trial, i)
			}
		}
	}
}

func TestCSRFusedGradientMatchesUnfusedPipeline(t *testing.T) {
	eachPath(t, testCSRFusedGradientMatchesUnfusedPipeline)
}

func testCSRFusedGradientMatchesUnfusedPipeline(t *testing.T) {
	dev := device.New("csr-fused-grad", 5)
	defer dev.Close()
	rng := rand.New(rand.NewSource(206))
	for trial := 0; trial < 20; trial++ {
		n, p, m := 1+rng.Intn(120), 1+rng.Intn(40), 1+rng.Intn(9)
		a := index(t, randCSR(rng, n, p, 0.3))
		b := randWeights(rng, m*p, 0)
		mkFn := func(s []float64) func(lo, hi int) float64 {
			return func(lo, hi int) float64 {
				var acc float64
				for i := lo * m; i < hi*m; i++ {
					s[i] *= 0.5
					acc += s[i]
				}
				return acc
			}
		}
		s1 := make([]float64, n*m)
		g1 := make([]float64, m*p)
		r1 := dev.MulNTReduce(a, b, m, s1, mkFn(s1))
		a.MulTN(dev, s1, m, g1)

		s2 := make([]float64, n*m)
		g2 := make([]float64, m*p)
		r2 := dev.FusedGradient(a, b, m, s2, mkFn(s2), g2)

		if r1 != r2 {
			t.Fatalf("trial %d: fused CSR reduction %v != unfused %v", trial, r2, r1)
		}
		for i := range s1 {
			if s1[i] != s2[i] {
				t.Fatalf("trial %d: fused CSR scores differ at %d", trial, i)
			}
		}
		for i := range g1 {
			if g1[i] != g2[i] {
				t.Fatalf("trial %d: fused CSR gradient differs at %d: %v vs %v", trial, i, g1[i], g2[i])
			}
		}
	}
}

func TestCSRMulTNDeterministicAcrossRuns(t *testing.T) {
	dev := device.New("csr-det", 7)
	defer dev.Close()
	rng := rand.New(rand.NewSource(204))
	n, p, m := 300, 25, 5
	a := randCSR(rng, n, p, 0.2)
	d := randWeights(rng, n*m, 0.2)
	ref := make([]float64, m*p)
	a.MulTN(dev, d, m, ref)
	got := make([]float64, m*p)
	for run := 0; run < 5; run++ {
		a.MulTN(dev, d, m, got)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("run %d: nondeterministic CSR MulTN at %d: %v vs %v", run, i, got[i], ref[i])
			}
		}
	}
}

func TestCSRProductsZeroAllocsSteadyState(t *testing.T) {
	eachPath(t, testCSRProductsZeroAllocsSteadyState)
}

func testCSRProductsZeroAllocsSteadyState(t *testing.T) {
	dev := device.New("csr-allocs", 4)
	defer dev.Close()
	rng := rand.New(rand.NewSource(205))
	for _, a := range []*CSR{
		index(t, randCSR(rng, 400, 30, 0.3)),   // more entries than columns
		index(t, randCSR(rng, 40, 3000, 0.01)), // fewer
	} {
		for _, m := range []int{6, 21} { // 21: a wide lane pass and a narrow one
			n, p := a.NumRows, a.NumCols
			b := randWeights(rng, m*p, 0)
			d := randWeights(rng, n*m, 0.1)
			s := make([]float64, n*m)
			g := make([]float64, m*p)
			fn := func(lo, hi int) float64 { return float64(hi - lo) }
			for name, f := range map[string]func(){
				"MulNT":         func() { a.MulNT(dev, b, m, s) },
				"MulTN":         func() { a.MulTN(dev, d, m, g) },
				"MulNTReduce":   func() { dev.MulNTReduce(a, b, m, s, fn) },
				"FusedGradient": func() { dev.FusedGradient(a, b, m, s, fn, g) },
			} {
				if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
					t.Fatalf("CSR %s (%d entries, %d columns, m=%d) allocates %v per call in steady state, want 0",
						name, a.NNZ(), p, m, allocs)
				}
			}
		}
	}
}
