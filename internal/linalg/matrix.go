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

// Dims returns the number of rows and columns; with NNZ and the two
// range kernels it makes a Matrix a device.Operand.
func (a *Matrix) Dims() (rows, cols int) { return a.Rows, a.Cols }

// NNZ returns the number of stored entries, every element.
func (a *Matrix) NNZ() int { return a.Rows * a.Cols }

// MulNTRange computes, for rows i in [lo,hi) of A, the block
// S[i,:] = A[i,:] * Wᵀ where S is rows(A) x m and w holds W feature-major
// (cols(A) x m: w[j*m+c] is class c's weight on feature j). It is the
// inner kernel parallelized by the device package. On AVX2 the lanes run
// (lanes.go); elsewhere a Go loop adds each feature's m weights into the
// row's m scores. Either way every S element sums its products in
// increasing-j order from +0, so the result is bitwise identical to
// MulNTRangeRef on the class-major W.
func (a *Matrix) MulNTRange(w []float64, m int, s []float64, lo, hi int) {
	p := a.Cols
	if len(w) != m*p {
		panic("linalg: MulNTRange W dimension mismatch")
	}
	if lanes {
		a.mulNTLanes(w, m, s, lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		si := s[i*m : (i+1)*m]
		clear(si)
		for j, v := range a.Row(i) {
			wj := w[j*m : (j+1)*m][:len(si)]
			for c, x := range wj {
				si[c] += float64(v * x)
			}
		}
	}
}

// MulTNRange accumulates, for rows i in [lo,hi) of A, the outer-product
// contribution G += D[i,:]ᵀ ⊗ A[i,:] where D is rows(A) x m and g holds G
// feature-major (cols(A) x m). Callers parallelize over disjoint row
// ranges with private G buffers. On AVX2 the lanes take rows four at a
// time (lanes.go); the rest run a Go loop. Every G element receives its
// rows' products in increasing-i order, as MulTNRangeRef does; its
// zero-weight skip is a bitwise no-op here for finite inputs (an
// accumulator that starts at +0 never becomes -0, so adding a ±0 product
// leaves it unchanged).
func (a *Matrix) MulTNRange(d []float64, m int, g []float64, lo, hi int) {
	p := a.Cols
	if len(g) != m*p {
		panic("linalg: MulTNRange G dimension mismatch")
	}
	i := lo
	if lanes {
		i = a.mulTNLanes(d, m, g, lo, hi)
	}
	for ; i < hi; i++ {
		di := d[i*m : (i+1)*m]
		for j, v := range a.Row(i) {
			gj := g[j*m : (j+1)*m][:len(di)]
			for c, x := range di {
				gj[c] += float64(x * v)
			}
		}
	}
}

// MulNTRangeRef is the serial reference for MulNTRange, with B class-major
// (m x cols(A)), kept for property testing: MulNTRange must match it
// bitwise on the same weights laid out feature-major.
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

// MulTNRangeRef is the serial reference for MulTNRange, with G
// class-major (m x cols(A)), kept for property testing: MulTNRange must
// match it bitwise once its G is laid out class-major.
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
