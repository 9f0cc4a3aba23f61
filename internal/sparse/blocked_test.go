package sparse

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"newtonadmm/internal/device"
)

// Property tests for the blocked CSR kernels, in both layouts, against the
// retained naive references (bitwise), plus allocation regression tests
// for the arena paths.

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

// m up to 13 covers every mix of the feature-major six-, three- and
// one-class passes and of the class-major quads and tail.
func TestCSRBlockedMulNTBitwiseMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(201))
	for trial := 0; trial < 120; trial++ {
		n, p, m := 1+rng.Intn(30), 1+rng.Intn(40), 1+rng.Intn(13)
		a := randCSR(rng, n, p, 0.3)
		b := randWeights(rng, m*p, 0.1)
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo) + 1
		want := make([]float64, n*m)
		a.mulNTRangeRef(b, m, want, lo, hi)
		classMajor := make([]float64, n*m)
		a.mulNTRange(b, m, classMajor, lo, hi)
		bt := make([]float64, m*p)
		toFeatureMajor(b, m, p, bt)
		featureMajor := make([]float64, n*m)
		a.mulNTRangeFM(bt, m, featureMajor, lo, hi)
		for layout, got := range map[string][]float64{"class-major": classMajor, "feature-major": featureMajor} {
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("trial %d (n=%d p=%d m=%d): %s CSR MulNT differs at %d: %v vs %v",
					trial, n, p, m, layout, i, got[i], want[i])
			}
		}
	}
}

func TestCSRBlockedMulTNBitwiseMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	for trial := 0; trial < 120; trial++ {
		n, p, m := 1+rng.Intn(30), 1+rng.Intn(40), 1+rng.Intn(13)
		a := randCSR(rng, n, p, 0.3)
		// Exercise the zero-weight skip, down to rows that are mostly zero;
		// an infinite entry makes skipping observable (0·Inf is NaN).
		d := randWeights(rng, n*m, []float64{0, 0.4, 0.9}[trial%3])
		if a.NNZ() > 0 && trial%4 == 0 {
			a.Val[rng.Intn(a.NNZ())] = math.Inf(1)
		}
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo) + 1
		want := make([]float64, m*p)
		a.mulTNRangeRef(d, m, want, lo, hi)
		classMajor := make([]float64, m*p)
		a.mulTNRange(d, m, classMajor, lo, hi)
		gt := make([]float64, m*p)
		a.mulTNRangeFM(d, m, gt, lo, hi)
		featureMajor := make([]float64, m*p)
		toClassMajor(gt, m, p, featureMajor)
		for layout, got := range map[string][]float64{"class-major": classMajor, "feature-major": featureMajor} {
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("trial %d (n=%d p=%d m=%d): %s CSR MulTN differs at %d: %v vs %v",
					trial, n, p, m, layout, i, got[i], want[i])
			}
		}
	}
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
// shapes either side of NNZ == NumCols (so both layouts), on one- and
// three-worker devices (so one and several chunk parts), against the
// reference loops: S row by row, G through chunkedMulTNRef.
func TestCSRProductsBitwiseMatchChunkedRef(t *testing.T) {
	rng := rand.New(rand.NewSource(207))
	for _, workers := range []int{1, 3} {
		dev := device.New("csr-chunked", workers)
		layouts := map[bool]int{}
		for trial := 0; trial < 60; trial++ {
			n, p, m := 1+rng.Intn(80), 1+rng.Intn(60), 1+rng.Intn(13)
			a := randCSR(rng, n, p, []float64{0.01, 0.05, 0.3}[trial%3])
			layouts[a.featureMajor()]++
			b := randWeights(rng, m*p, 0.1)
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
			a.MulNT(dev, b, m, s)
			if i := firstDiff(s, wantS); i >= 0 {
				t.Fatalf("workers %d trial %d (n=%d p=%d m=%d nnz=%d): MulNT differs at %d", workers, trial, n, p, m, a.NNZ(), i)
			}
			clear(s)
			a.MulNTReduce(dev, b, m, s, halve(s))
			halve(wantS)(0, n)
			if i := firstDiff(s, wantS); i >= 0 {
				t.Fatalf("workers %d trial %d: MulNTReduce differs at %d", workers, trial, i)
			}

			g := make([]float64, m*p)
			a.MulTN(dev, d, m, g)
			if i := firstDiff(g, chunkedMulTNRef(dev, a, d, m)); i >= 0 {
				t.Fatalf("workers %d trial %d (n=%d p=%d m=%d nnz=%d): MulTN differs at %d", workers, trial, n, p, m, a.NNZ(), i)
			}

			clear(s)
			a.FusedGradient(dev, b, m, s, halve(s), g)
			if i := firstDiff(s, wantS); i >= 0 {
				t.Fatalf("workers %d trial %d: FusedGradient scores differ at %d", workers, trial, i)
			}
			if i := firstDiff(g, chunkedMulTNRef(dev, a, wantS, m)); i >= 0 {
				t.Fatalf("workers %d trial %d: FusedGradient G differs at %d", workers, trial, i)
			}
		}
		dev.Close()
		if layouts[true] == 0 || layouts[false] == 0 {
			t.Fatalf("workers %d: trials covered only one layout: %v", workers, layouts)
		}
	}
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
		want := dev.ParallelReduce(n, 0, func(lo, hi int) float64 {
			var acc float64
			for i := lo * m; i < hi*m; i++ {
				acc += s1[i]
			}
			return acc
		})
		s2 := make([]float64, n*m)
		got := a.MulNTReduce(dev, b, m, s2, func(lo, hi int) float64 {
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
	dev := device.New("csr-fused-grad", 5)
	defer dev.Close()
	rng := rand.New(rand.NewSource(206))
	for trial := 0; trial < 20; trial++ {
		n, p, m := 1+rng.Intn(120), 1+rng.Intn(40), 1+rng.Intn(9)
		a := randCSR(rng, n, p, 0.3)
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
		a.MulNTReduce(dev, b, m, s1, mkFn(s1))
		a.MulTN(dev, s1, m, g1)

		s2 := make([]float64, n*m)
		g2 := make([]float64, m*p)
		a.FusedGradient(dev, b, m, s2, mkFn(s2), g2)

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
	dev := device.New("csr-allocs", 4)
	defer dev.Close()
	rng := rand.New(rand.NewSource(205))
	m := 6
	for _, a := range []*CSR{
		randCSR(rng, 400, 30, 0.3),   // feature-major
		randCSR(rng, 40, 3000, 0.01), // class-major
	} {
		n, p := a.NumRows, a.NumCols
		b := randWeights(rng, m*p, 0)
		d := randWeights(rng, n*m, 0.1)
		s := make([]float64, n*m)
		g := make([]float64, m*p)
		fn := func(lo, hi int) float64 { return float64(hi - lo) }
		for name, f := range map[string]func(){
			"MulNT":         func() { a.MulNT(dev, b, m, s) },
			"MulTN":         func() { a.MulTN(dev, d, m, g) },
			"MulNTReduce":   func() { a.MulNTReduce(dev, b, m, s, fn) },
			"FusedGradient": func() { a.FusedGradient(dev, b, m, s, fn, g) },
		} {
			if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
				t.Fatalf("CSR %s (feature-major %v) allocates %v per call in steady state, want 0",
					name, a.featureMajor(), allocs)
			}
		}
	}
}

// TestCSRFewRowProductStaysClassMajor checks that the layout is a property
// of each call's operand: after a shard-sized product has filled the
// device's layout scratch, a one-row product on the same device neither
// writes that scratch nor differs from the reference.
func TestCSRFewRowProductStaysClassMajor(t *testing.T) {
	dev := device.New("csr-few-rows", 1)
	defer dev.Close()
	rng := rand.New(rand.NewSource(208))
	n, p, m := 200, 500, 7
	shard := randCSR(rng, n, p, 0.05)
	row := randCSR(rng, 1, p, 0.05)
	if !shard.featureMajor() || row.featureMajor() {
		t.Fatalf("layouts: shard %d entries, row %d entries, %d columns", shard.NNZ(), row.NNZ(), p)
	}
	b := randWeights(rng, m*p, 0)
	shard.FusedGradient(dev, b, m, make([]float64, n*m), func(lo, hi int) float64 { return 0 }, make([]float64, m*p))

	bt, gt := dev.ScratchLayout(m * p)
	for i := range bt {
		bt[i], gt[i] = math.NaN(), math.NaN()
	}
	s := make([]float64, m)
	row.MulNT(dev, b, m, s)
	d := randWeights(rng, m, 0)
	g := make([]float64, m*p)
	row.MulTN(dev, d, m, g)

	bt, gt = dev.ScratchLayout(m * p)
	for i := range bt {
		if !math.IsNaN(bt[i]) || !math.IsNaN(gt[i]) {
			t.Fatalf("one-row product wrote the feature-major scratch at %d", i)
		}
	}
	wantS := make([]float64, m)
	row.mulNTRangeRef(b, m, wantS, 0, 1)
	wantG := make([]float64, m*p)
	row.mulTNRangeRef(d, m, wantG, 0, 1)
	if !slices.Equal(s, wantS) || !slices.Equal(g, wantG) {
		t.Fatal("one-row product differs from the reference")
	}
}
