package linalg

import "fmt"

// Matrix is a dense row-major matrix: element (i,j) is Data[i*Cols+j].
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed Rows x Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewMatrixFrom wraps data (no copy) as a Rows x Cols matrix.
func NewMatrixFrom(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: data length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Row returns a view of row i (no copy).
func (m *Matrix) Row(i int) []float64 {
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// RowSubset returns a new matrix whose rows are m's rows at the given
// indices, in order. The data is copied.
func (m *Matrix) RowSubset(idx []int) *Matrix {
	s := NewMatrix(len(idx), m.Cols)
	for k, i := range idx {
		copy(s.Row(k), m.Row(i))
	}
	return s
}

// RowRange returns rows [lo, hi) of m as a view sharing m's data.
func (m *Matrix) RowRange(lo, hi int) *Matrix {
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols : hi*m.Cols]}
}

// featureBlock is the cache-blocking width (in float64 elements) of the
// feature dimension used by the blocked kernels: 256 elements = 2 KiB per
// streamed row segment, so a 4-class register block touches ~10 KiB of
// hot data per tile and stays L1-resident. Blocking never reorders the
// per-element accumulation (see the kernel comments), so results are
// bitwise identical to the *Ref kernels at any block width.
const featureBlock = 256

// Dims returns the number of rows and columns; with NNZ, FeatureMajor
// and the two range kernels it makes a Matrix a device.Operand.
func (a *Matrix) Dims() (rows, cols int) { return a.Rows, a.Cols }

// NNZ returns the number of stored entries, every element.
func (a *Matrix) NNZ() int { return a.Rows * a.Cols }

// FeatureMajor reports whether the range kernels take B and G as
// cols x m, which they do exactly when the AVX2 lanes run (lanes.go) on
// at least laneRows rows; otherwise they take them as m x cols.
func (a *Matrix) FeatureMajor() bool { return lanes && a.Rows >= laneRows }

// MulNTRange computes, for rows i in [lo,hi) of A, the block
// S[i,:] = A[i,:] * B^T where B is m x cols(A) row-major and S is rows(A) x m.
// It is the inner kernel parallelized by the device package. When
// FeatureMajor, B is cols(A) x m and the AVX2 lanes run (lanes.go).
//
// Otherwise the implementation is register-blocked over four output classes at a
// time: the row A[i,:] is streamed once per class quad instead of once per
// class, and the four accumulators form independent floating-point
// dependency chains (the serial kernel is latency-bound on a single add
// chain). Each accumulator still sums A[i,j]*B[c,j] in increasing-j order
// with one accumulator per output element, so the result is bitwise
// identical to MulNTRangeRef — which is also why the feature dimension is
// blocked with an order-preserving split loop rather than a reordering
// tile: accumulating j-tiles into separate partials would reassociate the
// sum.
func (a *Matrix) MulNTRange(b []float64, m int, s []float64, lo, hi int) {
	p := a.Cols
	if len(b) != m*p {
		panic("linalg: MulNTRange B dimension mismatch")
	}
	if a.FeatureMajor() {
		a.mulNTLanes(b, m, s, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		ai := a.Row(i)
		si := s[i*m : (i+1)*m]
		c := 0
		for ; c+4 <= m; c += 4 {
			b0 := b[c*p : c*p+p]
			b1 := b[(c+1)*p : (c+1)*p+p]
			b2 := b[(c+2)*p : (c+2)*p+p]
			b3 := b[(c+3)*p : (c+3)*p+p]
			var acc0, acc1, acc2, acc3 float64
			for jb := 0; jb < p; jb += featureBlock {
				je := jb + featureBlock
				if je > p {
					je = p
				}
				av := ai[jb:je]
				// Reslicing to len(av) lets the compiler prove the
				// indexed loads below are in bounds (no per-element
				// bounds checks in the hot loop).
				t0 := b0[jb:je][:len(av)]
				t1 := b1[jb:je][:len(av)]
				t2 := b2[jb:je][:len(av)]
				t3 := b3[jb:je][:len(av)]
				for j, v := range av {
					acc0 += float64(v * t0[j])
					acc1 += float64(v * t1[j])
					acc2 += float64(v * t2[j])
					acc3 += float64(v * t3[j])
				}
			}
			si[c] = acc0
			si[c+1] = acc1
			si[c+2] = acc2
			si[c+3] = acc3
		}
		for ; c < m; c++ {
			bc := b[c*p : c*p+p]
			var acc float64
			for j, v := range ai {
				acc += float64(v * bc[j])
			}
			si[c] = acc
		}
	}
}

// MulTNRange accumulates, for rows i in [lo,hi) of A, the outer-product
// contribution G += D[i,:]^T ⊗ A[i,:] where D is rows(A) x m and G is m x cols(A).
// Callers parallelize over disjoint row ranges with private G buffers.
// When FeatureMajor, G is cols(A) x m and the AVX2 lanes run (lanes.go).
//
// Otherwise the kernel is cache-blocked over the feature dimension (the m x
// featureBlock tile of G stays resident while all rows of the range
// stream through it) and register-blocked 4x4: four sample rows and four
// classes at a time, so every G element is loaded and stored once per
// four row contributions instead of once each (the serial kernel is
// bound by that read-modify-write stream) and every A load feeds four
// classes. Blocking never changes the result: every G element still
// receives its per-row contributions in increasing-i order with the same
// multiply-add per contribution, so for finite inputs the output is
// bitwise identical to MulTNRangeRef (G accumulators start at +0 and can
// never become -0, making the zero-weight contributions the reference
// kernel skips exact bitwise no-ops; only non-finite inputs, which the
// loss layer never produces, would propagate differently).
func (a *Matrix) MulTNRange(d []float64, m int, g []float64, lo, hi int) {
	p := a.Cols
	if len(g) != m*p {
		panic("linalg: MulTNRange G dimension mismatch")
	}
	if a.FeatureMajor() {
		a.mulTNLanes(d, m, g, lo, hi)
		return
	}
	for jb := 0; jb < p; jb += featureBlock {
		je := jb + featureBlock
		if je > p {
			je = p
		}
		i := lo
		for ; i+4 <= hi; i += 4 {
			a0 := a.Row(i)[jb:je]
			a1 := a.Row(i + 1)[jb:je][:len(a0)]
			a2 := a.Row(i + 2)[jb:je][:len(a0)]
			a3 := a.Row(i + 3)[jb:je][:len(a0)]
			d0 := d[i*m : (i+1)*m]
			d1 := d[(i+1)*m : (i+2)*m]
			d2 := d[(i+2)*m : (i+3)*m]
			d3 := d[(i+3)*m : (i+4)*m]
			c := 0
			for ; c+4 <= m; c += 4 {
				w00, w10, w20, w30 := d0[c], d1[c], d2[c], d3[c]
				w01, w11, w21, w31 := d0[c+1], d1[c+1], d2[c+1], d3[c+1]
				w02, w12, w22, w32 := d0[c+2], d1[c+2], d2[c+2], d3[c+2]
				w03, w13, w23, w33 := d0[c+3], d1[c+3], d2[c+3], d3[c+3]
				g0 := g[c*p+jb : c*p+je][:len(a0)]
				g1 := g[(c+1)*p+jb : (c+1)*p+je][:len(a0)]
				g2 := g[(c+2)*p+jb : (c+2)*p+je][:len(a0)]
				g3 := g[(c+3)*p+jb : (c+3)*p+je][:len(a0)]
				for j, v0 := range a0 {
					v1, v2, v3 := a1[j], a2[j], a3[j]
					t0 := g0[j]
					t0 += float64(w00 * v0)
					t0 += float64(w10 * v1)
					t0 += float64(w20 * v2)
					t0 += float64(w30 * v3)
					g0[j] = t0
					t1 := g1[j]
					t1 += float64(w01 * v0)
					t1 += float64(w11 * v1)
					t1 += float64(w21 * v2)
					t1 += float64(w31 * v3)
					g1[j] = t1
					t2 := g2[j]
					t2 += float64(w02 * v0)
					t2 += float64(w12 * v1)
					t2 += float64(w22 * v2)
					t2 += float64(w32 * v3)
					g2[j] = t2
					t3 := g3[j]
					t3 += float64(w03 * v0)
					t3 += float64(w13 * v1)
					t3 += float64(w23 * v2)
					t3 += float64(w33 * v3)
					g3[j] = t3
				}
			}
			for ; c < m; c++ {
				w0, w1, w2, w3 := d0[c], d1[c], d2[c], d3[c]
				gc := g[c*p+jb : c*p+je][:len(a0)]
				for j, v0 := range a0 {
					t := gc[j]
					t += float64(w0 * v0)
					t += float64(w1 * a1[j])
					t += float64(w2 * a2[j])
					t += float64(w3 * a3[j])
					gc[j] = t
				}
			}
		}
		// Remainder rows (< 4): the reference per-class loop.
		for ; i < hi; i++ {
			ai := a.Row(i)[jb:je]
			di := d[i*m : (i+1)*m]
			for c := 0; c < m; c++ {
				w := di[c]
				if w == 0 {
					continue
				}
				gc := g[c*p+jb : c*p+je][:len(ai)]
				for j, v := range ai {
					gc[j] += float64(w * v)
				}
			}
		}
	}
}

// MulNTRangeRef is the unblocked serial reference for MulNTRange, kept
// for property testing: the blocked kernel must match it bitwise.
func MulNTRangeRef(a *Matrix, b []float64, m int, s []float64, lo, hi int) {
	p := a.Cols
	if len(b) != m*p {
		panic("linalg: MulNTRangeRef B dimension mismatch")
	}
	for i := lo; i < hi; i++ {
		ai := a.Row(i)
		si := s[i*m : (i+1)*m]
		for c := 0; c < m; c++ {
			bc := b[c*p : (c+1)*p]
			var acc float64
			for j, v := range ai {
				acc += float64(v * bc[j])
			}
			si[c] = acc
		}
	}
}

// MulTNRangeRef is the unblocked serial reference for MulTNRange, kept
// for property testing: the blocked kernel must match it bitwise.
func MulTNRangeRef(a *Matrix, d []float64, m int, g []float64, lo, hi int) {
	p := a.Cols
	if len(g) != m*p {
		panic("linalg: MulTNRangeRef G dimension mismatch")
	}
	for i := lo; i < hi; i++ {
		ai := a.Row(i)
		di := d[i*m : (i+1)*m]
		for c := 0; c < m; c++ {
			w := di[c]
			if w == 0 {
				continue
			}
			gc := g[c*p : (c+1)*p]
			for j, v := range ai {
				gc[j] += float64(w * v)
			}
		}
	}
}

// MulNT computes S = A * B^T serially (reference implementation).
// B is m x cols(A); S must have length rows(A)*m.
func MulNT(a *Matrix, b []float64, m int, s []float64) {
	if len(s) != a.Rows*m {
		panic("linalg: MulNT S dimension mismatch")
	}
	MulNTRangeRef(a, b, m, s, 0, a.Rows)
}

// MulTN computes G = D^T * A serially (reference implementation).
// D is rows(A) x m; G must have length m*cols(A) and is overwritten.
func MulTN(a *Matrix, d []float64, m int, g []float64) {
	Zero(g)
	MulTNRangeRef(a, d, m, g, 0, a.Rows)
}
