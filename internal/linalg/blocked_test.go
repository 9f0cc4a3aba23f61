package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// The range kernels take W and G feature-major; the retained serial
// references take them class-major. On both paths — the AVX2 lanes and
// the Go loops — the kernels must match the references bitwise once the
// layouts are converted: on every shape from one row up, class counts
// that exercise every 8-class tile and masked 1–4-lane tail, row counts
// that exercise the 4-row remainder, and inputs laced with exact zeros
// (the reference MulTN skips zero weights; the kernels must reproduce
// that bitwise).

func randVecWithZeros(rng *rand.Rand, n int, zeroFrac float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Float64() >= zeroFrac {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// eachPath runs f on the Go loops ("fallback") and, where the CPU has
// them, on the lanes, with the lanes test hook set accordingly.
func eachPath(t *testing.T, f func(t *testing.T)) {
	paths := []bool{false}
	if lanesSupported {
		paths = append(paths, true)
	}
	for _, on := range paths {
		name := "fallback"
		if on {
			name = "lanes"
		}
		t.Run(name, func(t *testing.T) {
			defer func(was bool) { lanes = was }(lanes)
			lanes = on
			f(t)
		})
	}
}

// Kernel shapes straddling every tile edge: n from one row past the row
// quads (subranges give every row tail), m over every mix of 8-class
// tiles and 1–4-lane tails, p small, odd and at MNIST width.
var (
	propNs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 23}
	propMs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}
	propPs = []int{1, 3, 255, 256, 257, 784}
)

// eachShape runs f over every (n, p, m) of the prop tables.
func eachShape(f func(n, p, m int)) {
	for _, n := range propNs {
		for _, p := range propPs {
			for _, m := range propMs {
				f(n, p, m)
			}
		}
	}
}

// mulNTRange runs a.MulNTRange on class-major b, laid out feature-major.
func mulNTRange(a *Matrix, b []float64, m int, s []float64, lo, hi int) {
	a.MulNTRange(transpose(b, m, a.Cols), m, s, lo, hi)
}

// mulTNRange runs a.MulTNRange into class-major g, accumulating
// feature-major and converting back.
func mulTNRange(a *Matrix, d []float64, m int, g []float64, lo, hi int) {
	gt := transpose(g, m, a.Cols)
	a.MulTNRange(d, m, gt, lo, hi)
	copy(g, transpose(gt, a.Cols, m))
}

// transpose returns the rows × cols row-major x as cols × rows.
func transpose(x []float64, rows, cols int) []float64 {
	t := make([]float64, len(x))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			t[c*rows+r] = x[r*cols+c]
		}
	}
	return t
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

func TestBlockedMulNTBitwiseMatchesRef(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(101))
		eachShape(func(n, p, m int) {
			a := randMatrix(rng, n, p)
			b := randVecWithZeros(rng, m*p, 0.1)
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo) + 1
			got := make([]float64, n*m)
			want := make([]float64, n*m)
			mulNTRange(a, b, m, got, lo, hi)
			MulNTRangeRef(a, b, m, want, lo, hi)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("n=%d p=%d m=%d rows [%d,%d): MulNT differs at %d: %v vs %v",
					n, p, m, lo, hi, i, got[i], want[i])
			}
		})
	})
}

func TestBlockedMulTNBitwiseMatchesRef(t *testing.T) {
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(102))
		trial := 0
		eachShape(func(n, p, m int) {
			a := randMatrix(rng, n, p)
			// Zero-laden weights, down to all-but-empty rows: the
			// reference kernel's w==0 skip must be bitwise-reproduced.
			d := randVecWithZeros(rng, n*m, []float64{0, 0.4, 0.9}[trial%3])
			trial++
			lo := rng.Intn(n)
			hi := lo + rng.Intn(n-lo) + 1
			got := make([]float64, m*p)
			want := make([]float64, m*p)
			mulTNRange(a, d, m, got, lo, hi)
			MulTNRangeRef(a, d, m, want, lo, hi)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("n=%d p=%d m=%d rows [%d,%d): MulTN differs at %d: %v vs %v",
					n, p, m, lo, hi, i, got[i], want[i])
			}
		})
	})
}

func TestBlockedMulTNRangePartitionBitwise(t *testing.T) {
	// Accumulating disjoint row ranges into one buffer must equal the
	// full-range reference bitwise — the contract the device's
	// single-chunk fast path relies on.
	eachPath(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(103))
		eachShape(func(n, p, m int) {
			a := randMatrix(rng, n, p)
			d := randVecWithZeros(rng, n*m, 0.3)
			cut := rng.Intn(n + 1)
			got := make([]float64, m*p)
			a.MulTNRange(d, m, got, 0, cut)
			a.MulTNRange(d, m, got, cut, n)
			got = transpose(got, p, m)
			want := make([]float64, m*p)
			MulTNRangeRef(a, d, m, want, 0, n)
			if i := firstDiff(got, want); i >= 0 {
				t.Fatalf("n=%d p=%d m=%d cut %d: partitioned MulTN differs at %d: %v vs %v",
					n, p, m, cut, i, got[i], want[i])
			}
		})
	})
}
