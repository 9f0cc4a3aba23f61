// Package sparse implements a compressed sparse row (CSR) matrix with the
// device-parallel products needed by the softmax loss. The paper's E18
// dataset has ~280k features where forming dense structures (let alone the
// Hessian) is infeasible; CSR plus Hessian-free products is the code path
// that makes that experiment possible.
//
// A CSR is a device.Operand: it supplies the serial row-range kernels and
// the device's one product launch does the rest (chunking, arena
// accumulators, reduction, counters), exactly as for dense data. The
// class-major kernels are register-blocked over four output classes (each
// nonzero's value and column index are loaded once and feed four
// outputs). A matrix with at least as many stored entries as columns is
// feature-major: the device copies W to p×m in its arena so each nonzero
// reads its class weights as one contiguous run (PERF.md "CSR layout").
// The unexported *Ref methods keep the naive loops as the bitwise
// reference for property tests; both layouts match them bit for bit.
package sparse

import (
	"fmt"
	"slices"
	"sort"

	"newtonadmm/internal/device"
	"newtonadmm/internal/linalg"
)

// CSR is a compressed sparse row matrix. Row i's nonzeros are
// Col[RowPtr[i]:RowPtr[i+1]] / Val[RowPtr[i]:RowPtr[i+1]], with column
// indices strictly increasing within a row.
//
// A CSR holds no kernel state: the persistent kernel and its scratch
// belong to the device, so products on one CSR follow each device's
// single-stream rule, and the matrix itself is only read.
type CSR struct {
	NumRows, NumCols int
	RowPtr           []int
	Col              []int
	Val              []float64
}

// Coord is a single (row, col, value) entry used to build CSR matrices.
type Coord struct {
	Row, Col int
	Val      float64
}

// FromCoords builds a CSR matrix from coordinate triplets. Duplicate
// (row, col) entries are summed; zero results are kept. Entries out of
// range cause an error.
func FromCoords(rows, cols int, entries []Coord) (*CSR, error) {
	for _, e := range entries {
		if e.Row < 0 || e.Row >= rows || e.Col < 0 || e.Col >= cols {
			return nil, fmt.Errorf("sparse: entry (%d,%d) outside %dx%d", e.Row, e.Col, rows, cols)
		}
	}
	sorted := make([]Coord, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	m := &CSR{NumRows: rows, NumCols: cols, RowPtr: make([]int, rows+1)}
	for k := 0; k < len(sorted); {
		e := sorted[k]
		v := e.Val
		k++
		for k < len(sorted) && sorted[k].Row == e.Row && sorted[k].Col == e.Col {
			v += sorted[k].Val
			k++
		}
		m.Col = append(m.Col, e.Col)
		m.Val = append(m.Val, v)
		m.RowPtr[e.Row+1]++
	}
	for i := 0; i < rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m, nil
}

// FromDense converts a dense matrix to CSR, dropping exact zeros.
func FromDense(a *linalg.Matrix) *CSR {
	m := &CSR{NumRows: a.Rows, NumCols: a.Cols, RowPtr: make([]int, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		for j, v := range row {
			if v != 0 {
				m.Col = append(m.Col, j)
				m.Val = append(m.Val, v)
			}
		}
		m.RowPtr[i+1] = len(m.Col)
	}
	return m
}

// NNZ returns the number of stored entries.
func (m *CSR) NNZ() int { return len(m.Val) }

// Dims returns the number of rows and columns.
func (m *CSR) Dims() (rows, cols int) { return m.NumRows, m.NumCols }

// FeatureMajor reports whether products on m run in the feature-major
// layout: with at least as many stored entries as columns, copying W
// (m×p) to p×m and G back costs less than the scattered reads it saves,
// since each nonzero then touches its m class weights as one contiguous
// run instead of m cache lines p floats apart. Few-row products, such as
// single-row sparse scoring, stay class-major.
func (m *CSR) FeatureMajor() bool { return m.NNZ() >= m.NumCols }

// MulNTRange writes rows [lo,hi) of S = A·Bᵀ, with b in the layout
// FeatureMajor names.
func (m *CSR) MulNTRange(b []float64, mRows int, s []float64, lo, hi int) {
	if m.FeatureMajor() {
		m.mulNTRangeFM(b, mRows, s, lo, hi)
	} else {
		m.mulNTRange(b, mRows, s, lo, hi)
	}
}

// MulTNRange adds rows [lo,hi)'s contribution to G = Dᵀ·A, with g in the
// layout FeatureMajor names.
func (m *CSR) MulTNRange(d []float64, mRows int, g []float64, lo, hi int) {
	if m.FeatureMajor() {
		m.mulTNRangeFM(d, mRows, g, lo, hi)
	} else {
		m.mulTNRange(d, mRows, g, lo, hi)
	}
}

// MulNT computes S = A·Bᵀ on dev: A is this CSR (n×p), B is m×p
// row-major dense, S is n×m row-major (overwritten).
func (m *CSR) MulNT(dev *device.Device, b []float64, mRows int, s []float64) {
	dev.MulNT(m, b, mRows, s)
}

// MulTN computes G = Dᵀ·A on dev: D is n×m dense, A is this CSR (n×p),
// G is m×p (overwritten).
func (m *CSR) MulTN(dev *device.Device, d []float64, mRows int, g []float64) {
	dev.MulTN(m, d, mRows, g)
}

// At returns element (i, j) with a binary search over row i.
func (m *CSR) At(i, j int) float64 {
	lo, hi := m.RowPtr[i], m.RowPtr[i+1]
	k := lo + sort.SearchInts(m.Col[lo:hi], j)
	if k < hi && m.Col[k] == j {
		return m.Val[k]
	}
	return 0
}

// ToDense materializes the matrix densely (for tests and small problems).
func (m *CSR) ToDense() *linalg.Matrix {
	d := linalg.NewMatrix(m.NumRows, m.NumCols)
	for i := 0; i < m.NumRows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d.Set(i, m.Col[k], m.Val[k])
		}
	}
	return d
}

// RowSubset returns a new CSR whose rows are m's rows at idx, in order.
func (m *CSR) RowSubset(idx []int) *CSR {
	s := &CSR{NumRows: len(idx), NumCols: m.NumCols, RowPtr: make([]int, len(idx)+1)}
	nnz := 0
	for _, i := range idx {
		nnz += m.RowPtr[i+1] - m.RowPtr[i]
	}
	s.Col = make([]int, 0, nnz)
	s.Val = make([]float64, 0, nnz)
	for k, i := range idx {
		s.Col = append(s.Col, m.Col[m.RowPtr[i]:m.RowPtr[i+1]]...)
		s.Val = append(s.Val, m.Val[m.RowPtr[i]:m.RowPtr[i+1]]...)
		s.RowPtr[k+1] = len(s.Col)
	}
	return s
}

// mulNTRange computes the blocked S = A * B^T tile for rows [lo,hi):
// four classes at a time, so each stored (value, column) pair is loaded
// once per quad instead of once per class, and the four accumulators form
// independent dependency chains. Each accumulator sums in nonzero order
// exactly like the reference, so results are bitwise identical to
// mulNTRangeRef.
func (m *CSR) mulNTRange(b []float64, mRows int, s []float64, lo, hi int) {
	p := m.NumCols
	rowPtr, col, val := m.RowPtr, m.Col, m.Val
	for i := lo; i < hi; i++ {
		si := s[i*mRows : (i+1)*mRows]
		start, end := rowPtr[i], rowPtr[i+1]
		cols := col[start:end]
		vals := val[start:end]
		c := 0
		for ; c+4 <= mRows; c += 4 {
			b0 := b[c*p : c*p+p]
			b1 := b[(c+1)*p : (c+1)*p+p]
			b2 := b[(c+2)*p : (c+2)*p+p]
			b3 := b[(c+3)*p : (c+3)*p+p]
			var acc0, acc1, acc2, acc3 float64
			for k, j := range cols {
				v := vals[k]
				acc0 += v * b0[j]
				acc1 += v * b1[j]
				acc2 += v * b2[j]
				acc3 += v * b3[j]
			}
			si[c] = acc0
			si[c+1] = acc1
			si[c+2] = acc2
			si[c+3] = acc3
		}
		for ; c < mRows; c++ {
			bc := b[c*p : c*p+p]
			var acc float64
			for k, j := range cols {
				acc += vals[k] * bc[j]
			}
			si[c] = acc
		}
	}
}

// mulNTRangeRef is the naive reference for mulNTRange (property tests).
func (m *CSR) mulNTRangeRef(b []float64, mRows int, s []float64, lo, hi int) {
	p := m.NumCols
	for i := lo; i < hi; i++ {
		si := s[i*mRows : (i+1)*mRows]
		start, end := m.RowPtr[i], m.RowPtr[i+1]
		for c := 0; c < mRows; c++ {
			bc := b[c*p : (c+1)*p]
			var acc float64
			for k := start; k < end; k++ {
				acc += m.Val[k] * bc[m.Col[k]]
			}
			si[c] = acc
		}
	}
}

// mulTNRange accumulates the blocked G += D^T * A contribution of rows
// [lo,hi) into g. Four classes share each nonzero's scattered update, and
// quads containing a zero weight fall back to the reference per-class
// loop so the w==0 skip semantics match mulTNRangeRef bitwise (per
// element, contributions arrive in the same (row, nonzero) order).
func (m *CSR) mulTNRange(d []float64, mRows int, g []float64, lo, hi int) {
	p := m.NumCols
	rowPtr, col, val := m.RowPtr, m.Col, m.Val
	for i := lo; i < hi; i++ {
		di := d[i*mRows : (i+1)*mRows]
		start, end := rowPtr[i], rowPtr[i+1]
		cols := col[start:end]
		vals := val[start:end]
		c := 0
		for ; c+4 <= mRows; c += 4 {
			w0, w1, w2, w3 := di[c], di[c+1], di[c+2], di[c+3]
			if w0 == 0 || w1 == 0 || w2 == 0 || w3 == 0 {
				csrQuadSkip(g, cols, vals, di, c, c+4, p)
				continue
			}
			g0 := g[c*p : c*p+p]
			g1 := g[(c+1)*p : (c+1)*p+p]
			g2 := g[(c+2)*p : (c+2)*p+p]
			g3 := g[(c+3)*p : (c+3)*p+p]
			for k, j := range cols {
				v := vals[k]
				g0[j] += w0 * v
				g1[j] += w1 * v
				g2[j] += w2 * v
				g3[j] += w3 * v
			}
		}
		if c < mRows {
			csrQuadSkip(g, cols, vals, di, c, mRows, p)
		}
	}
}

// csrQuadSkip is the per-class tail of the blocked CSR MulTN kernel: the
// reference scatter loop with the zero-weight skip for classes [c0,c1).
func csrQuadSkip(g []float64, cols []int, vals, di []float64, c0, c1, p int) {
	for c := c0; c < c1; c++ {
		w := di[c]
		if w == 0 {
			continue
		}
		gc := g[c*p : c*p+p]
		for k, j := range cols {
			gc[j] += w * vals[k]
		}
	}
}

// mulTNRangeRef is the naive reference for mulTNRange (property tests).
func (m *CSR) mulTNRangeRef(d []float64, mRows int, g []float64, lo, hi int) {
	p := m.NumCols
	for i := lo; i < hi; i++ {
		di := d[i*mRows : (i+1)*mRows]
		start, end := m.RowPtr[i], m.RowPtr[i+1]
		for c := 0; c < mRows; c++ {
			w := di[c]
			if w == 0 {
				continue
			}
			gc := g[c*p : (c+1)*p]
			for k := start; k < end; k++ {
				gc[m.Col[k]] += w * m.Val[k]
			}
		}
	}
}

// mulNTRangeFM is mulNTRange over the feature-major bt (p × mRows): a
// pass over a row's nonzeros accumulates six classes (then three, then
// one) from adjacent floats. Each accumulator still sums its products in
// nonzero order from +0, so results are bitwise identical to
// mulNTRangeRef. Each pass is its own function so that its accumulators
// stay in registers.
func (m *CSR) mulNTRangeFM(bt []float64, mRows int, s []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		si := s[i*mRows : (i+1)*mRows]
		start, end := m.RowPtr[i], m.RowPtr[i+1]
		cols, vals := m.Col[start:end], m.Val[start:end]
		c := 0
		for ; c+6 <= mRows; c += 6 {
			si[c], si[c+1], si[c+2], si[c+3], si[c+4], si[c+5] = dot6FM(cols, vals, bt[c:], mRows)
		}
		for ; c+3 <= mRows; c += 3 {
			si[c], si[c+1], si[c+2] = dot3FM(cols, vals, bt[c:], mRows)
		}
		for ; c < mRows; c++ {
			si[c] = dot1FM(cols, vals, bt[c:], mRows)
		}
	}
}

// dot6FM returns Σ_k vals[k]·b[cols[k]·stride + q] for q = 0..5.
func dot6FM(cols []int, vals, b []float64, stride int) (a0, a1, a2, a3, a4, a5 float64) {
	vals = vals[:len(cols)]
	for k, j := range cols {
		v := vals[k]
		w := b[j*stride : j*stride+6]
		a0 += v * w[0]
		a1 += v * w[1]
		a2 += v * w[2]
		a3 += v * w[3]
		a4 += v * w[4]
		a5 += v * w[5]
	}
	return
}

// dot3FM returns Σ_k vals[k]·b[cols[k]·stride + q] for q = 0..2.
func dot3FM(cols []int, vals, b []float64, stride int) (a0, a1, a2 float64) {
	vals = vals[:len(cols)]
	for k, j := range cols {
		v := vals[k]
		w := b[j*stride : j*stride+3]
		a0 += v * w[0]
		a1 += v * w[1]
		a2 += v * w[2]
	}
	return
}

// dot1FM returns Σ_k vals[k]·b[cols[k]·stride].
func dot1FM(cols []int, vals, b []float64, stride int) (a float64) {
	vals = vals[:len(cols)]
	for k, j := range cols {
		a += vals[k] * b[j*stride]
	}
	return
}

// mulTNRangeFM is mulTNRange into the feature-major gt (p × mRows): a
// pass over a row's nonzeros holds six (then three, then one) class
// weights in registers and updates that many adjacent accumulators per
// nonzero. Every element still receives its contributions in (row,
// nonzero) order, so results are bitwise identical to mulTNRangeRef.
// That includes its zero-weight skip: a skipped 0·v is ±0, which leaves
// a sum begun at +0 unchanged unless v is infinite or NaN, so only such
// a row with a zero weight takes the reference's class-by-class skip.
func (m *CSR) mulTNRangeFM(d []float64, mRows int, gt []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		di := d[i*mRows : (i+1)*mRows]
		start, end := m.RowPtr[i], m.RowPtr[i+1]
		cols, vals := m.Col[start:end], m.Val[start:end]
		if slices.Contains(di, 0) && !allFinite(vals) {
			axpySkipFM(cols, vals, gt, mRows, di)
			continue
		}
		c := 0
		for ; c+6 <= mRows; c += 6 {
			w := di[c : c+6]
			axpy6FM(cols, vals, gt[c:], mRows, w[0], w[1], w[2], w[3], w[4], w[5])
		}
		for ; c+3 <= mRows; c += 3 {
			axpy3FM(cols, vals, gt[c:], mRows, di[c], di[c+1], di[c+2])
		}
		axpySkipFM(cols, vals, gt[c:], mRows, di[c:])
	}
}

// allFinite reports whether no value is infinite or NaN.
func allFinite(vals []float64) bool {
	for _, v := range vals {
		if v-v != 0 {
			return false
		}
	}
	return true
}

// axpy6FM adds w_q·vals[k] to g[cols[k]·stride + q] for q = 0..5.
func axpy6FM(cols []int, vals, g []float64, stride int, w0, w1, w2, w3, w4, w5 float64) {
	vals = vals[:len(cols)]
	for k, j := range cols {
		v := vals[k]
		x := g[j*stride : j*stride+6]
		x[0] += w0 * v
		x[1] += w1 * v
		x[2] += w2 * v
		x[3] += w3 * v
		x[4] += w4 * v
		x[5] += w5 * v
	}
}

// axpy3FM adds w_q·vals[k] to g[cols[k]·stride + q] for q = 0..2.
func axpy3FM(cols []int, vals, g []float64, stride int, w0, w1, w2 float64) {
	vals = vals[:len(cols)]
	for k, j := range cols {
		v := vals[k]
		x := g[j*stride : j*stride+3]
		x[0] += w0 * v
		x[1] += w1 * v
		x[2] += w2 * v
	}
}

// axpySkipFM adds w[q]·vals[k] to g[cols[k]·stride + q] one class at a
// time, skipping zero weights as mulTNRangeRef does (the last classes of
// every row, and whole rows whose skips are observable).
func axpySkipFM(cols []int, vals, g []float64, stride int, w []float64) {
	vals = vals[:len(cols)]
	for q, wq := range w {
		if wq == 0 {
			continue
		}
		gq := g[q:]
		for k, j := range cols {
			gq[j*stride] += wq * vals[k]
		}
	}
}
