package linalg

import (
	"math/rand"
	"testing"
)

// The blocked kernels must be drop-in replacements for the retained
// serial references: bitwise-identical output on every shape, including
// feature dimensions that straddle the cache-block width, class counts
// that exercise the 4-class remainder, row counts that exercise the
// 4-row remainder, and inputs laced with exact zeros (the reference
// MulTN skips zero weights; the blocked kernel must reproduce that
// bitwise).

func randVecWithZeros(rng *rand.Rand, n int, zeroFrac float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Float64() >= zeroFrac {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// propShapes exercises the blocking boundaries: p around featureBlock,
// m around the class quad, n around the row quad.
func propShapes(rng *rand.Rand) (n, p, m int) {
	ps := []int{1, 2, 3, 5, featureBlock - 1, featureBlock, featureBlock + 1, 2*featureBlock + 7, 40}
	ms := []int{1, 2, 3, 4, 5, 7, 8, 9, 11}
	ns := []int{1, 2, 3, 4, 5, 7, 8, 23}
	return ns[rng.Intn(len(ns))], ps[rng.Intn(len(ps))], ms[rng.Intn(len(ms))]
}

func TestBlockedMulNTBitwiseMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 200; trial++ {
		n, p, m := propShapes(rng)
		a := randMatrix(rng, n, p)
		b := randVecWithZeros(rng, m*p, 0.1)
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo) + 1
		got := make([]float64, n*m)
		want := make([]float64, n*m)
		a.MulNTRange(b, m, got, lo, hi)
		MulNTRangeRef(a, b, m, want, lo, hi)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d p=%d m=%d rows [%d,%d)): blocked MulNT differs at %d: %v vs %v",
					trial, n, p, m, lo, hi, i, got[i], want[i])
			}
		}
	}
}

func TestBlockedMulTNBitwiseMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for trial := 0; trial < 200; trial++ {
		n, p, m := propShapes(rng)
		a := randMatrix(rng, n, p)
		// Heavily zero-laden weights: the reference kernel's w==0 skip
		// must be bitwise-reproduced by the blocked kernel.
		d := randVecWithZeros(rng, n*m, 0.4)
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo) + 1
		got := make([]float64, m*p)
		want := make([]float64, m*p)
		a.MulTNRange(d, m, got, lo, hi)
		MulTNRangeRef(a, d, m, want, lo, hi)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d (n=%d p=%d m=%d rows [%d,%d)): blocked MulTN differs at %d: %v vs %v",
					trial, n, p, m, lo, hi, i, got[i], want[i])
			}
		}
	}
}

func TestBlockedMulTNRangePartitionBitwise(t *testing.T) {
	// Accumulating disjoint row ranges into one buffer must equal the
	// full-range reference bitwise — the contract the device's
	// single-chunk fast path relies on.
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 50; trial++ {
		n, p, m := propShapes(rng)
		a := randMatrix(rng, n, p)
		d := randVecWithZeros(rng, n*m, 0.3)
		got := make([]float64, m*p)
		cut := rng.Intn(n + 1)
		a.MulTNRange(d, m, got, 0, cut)
		a.MulTNRange(d, m, got, cut, n)
		want := make([]float64, m*p)
		MulTNRangeRef(a, d, m, want, 0, n)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("trial %d: partitioned MulTN differs at %d: %v vs %v", trial, i, got[i], want[i])
			}
		}
	}
}
