// Package linalg provides the dense linear-algebra kernels used throughout
// the Newton-ADMM solver: BLAS-1 style vector operations and row-parallel
// BLAS-3 style matrix products. All matrices are row-major float64.
//
// The package is deliberately dependency-free; the device package layers
// parallel execution and accounting on top of these kernels. On an AVX2
// CPU the dense range kernels run Go-assembly lanes (lanes.go), bit for
// bit the same sums as the Go loops; every multiply-add here is written
// float64(a*b) so no architecture may fuse it.
package linalg

import "math"

// Dot returns the inner product <x, y>. The slices must have equal length.
func Dot(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("linalg: Dot length mismatch")
	}
	var s float64
	for i, v := range x {
		s += float64(v * y[i])
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: Axpy length mismatch")
	}
	if alpha == 0 {
		return
	}
	for i, v := range x {
		y[i] += float64(alpha * v)
	}
}

// Waxpby computes w = alpha*x + beta*y element-wise. w may alias x or y.
func Waxpby(alpha float64, x []float64, beta float64, y, w []float64) {
	if len(x) != len(y) || len(x) != len(w) {
		panic("linalg: Waxpby length mismatch")
	}
	for i := range w {
		w[i] = float64(alpha*x[i]) + float64(beta*y[i])
	}
}

// Scal scales x by alpha in place.
func Scal(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Copy copies src into dst. The slices must have equal length.
func Copy(dst, src []float64) {
	if len(dst) != len(src) {
		panic("linalg: Copy length mismatch")
	}
	copy(dst, src)
}

// Zero sets every element of x to zero.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Nrm2 returns the Euclidean norm of x, guarding against overflow for
// large components by rescaling.
func Nrm2(x []float64) float64 {
	var scale, ssq float64
	ssq = 1
	for _, v := range x {
		if v == 0 {
			continue
		}
		a := math.Abs(v)
		if scale < a {
			r := scale / a
			ssq = 1 + float64(ssq*r*r)
			scale = a
		} else {
			r := a / scale
			ssq += float64(r * r)
		}
	}
	if scale == 0 {
		return 0
	}
	return scale * math.Sqrt(ssq)
}

// NrmInf returns the max-norm of x.
func NrmInf(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}

// Clone returns a copy of x.
func Clone(x []float64) []float64 {
	c := make([]float64, len(x))
	copy(c, x)
	return c
}

// Add computes y += x element-wise.
func Add(y, x []float64) {
	if len(x) != len(y) {
		panic("linalg: Add length mismatch")
	}
	for i, v := range x {
		y[i] += v
	}
}

// Sub computes y -= x element-wise.
func Sub(y, x []float64) {
	if len(x) != len(y) {
		panic("linalg: Sub length mismatch")
	}
	for i, v := range x {
		y[i] -= v
	}
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Dist2 returns the Euclidean distance ||x - y||.
func Dist2(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("linalg: Dist2 length mismatch")
	}
	var ssq float64
	for i, v := range x {
		d := v - y[i]
		ssq += float64(d * d)
	}
	return math.Sqrt(ssq)
}

// AllFinite reports whether every element of x is finite (no NaN/Inf).
func AllFinite(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
