// Package sparse implements a compressed sparse row (CSR) matrix with the
// device-parallel products needed by the softmax loss. The paper's E18
// dataset has ~280k features where forming dense structures (let alone the
// Hessian) is infeasible; CSR plus Hessian-free products is the code path
// that makes that experiment possible.
//
// A CSR is a device.Operand: it supplies the serial row-range kernels and
// the device's one product launch does the rest (chunking, arena
// accumulators, reduction, counters), exactly as for dense data. The
// kernels take W and G feature-major (p×m, the solver's layout), so each
// nonzero reads or updates its class weights as one contiguous run
// (PERF.md "Weight layout"). The unexported *Ref methods keep the naive
// class-major loops as the bitwise reference for property tests.
//
// A training shard is also indexed by column (IndexColumns, called when
// the training objective is built): its products then walk columns, so
// the score pass streams W row by row and scatters into the small n×m S,
// and the accumulation pass (SetTNRange) gathers from D and writes each
// row of G once, instead of every nonzero reaching into W or G at a
// random spot. Each column keeps its rows in increasing order, so every
// element of S still sums over increasing columns and every element of G
// over increasing rows, from +0: the results are bit for bit the row
// walk's. The index exists only when every value is finite, since the
// row walk's zero-weight skip has no column twin; other matrices,
// serving request rows among them, keep the row walk (PERF.md "Column
// index").
package sparse

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"newtonadmm/internal/device"
	"newtonadmm/internal/linalg"
)

// CSR is a compressed sparse row matrix. Row i's nonzeros are
// Col[RowPtr[i]:RowPtr[i+1]] / Val[RowPtr[i]:RowPtr[i+1]], with column
// indices strictly increasing within a row.
//
// A CSR holds no kernel state: the persistent kernel and its scratch
// belong to the device, so products on one CSR follow each device's
// single-stream rule, and the matrix itself is only read. Its one
// derived structure, the column index, is built once and then only read.
type CSR struct {
	NumRows, NumCols int
	RowPtr           []int
	Col              []int
	Val              []float64

	cols atomic.Pointer[colIndex] // set by IndexColumns
}

// colIndex is a CSR's transpose (CSC): column j's entries are
// row[ptr[j]:ptr[j+1]] / val[ptr[j]:ptr[j+1]], rows strictly increasing.
type colIndex struct {
	ptr []int
	row []int
	val []float64
}

// IndexColumns builds m's column index, after which MulNTRange walks
// columns and SetTNRange can, with bitwise-identical results (package
// comment). It builds nothing when the index exists, when a value is
// infinite or NaN, or when a row's columns are not strictly increasing
// inside [0, NumCols) (the row kernels then report the bad column). It is
// safe to call from several goroutines; m must not be written afterwards.
func (m *CSR) IndexColumns() {
	if m.cols.Load() != nil || !allFinite(m.Val) {
		return
	}
	if x := m.transpose(); x != nil {
		m.cols.CompareAndSwap(nil, x)
	}
}

// ColumnIndexed reports whether IndexColumns built m's column index. The
// device then runs each chunk of a launch as one panel, since every
// range call walks all of W's or G's rows, and accumulates G through
// SetTNRange.
func (m *CSR) ColumnIndexed() bool { return m.cols.Load() != nil }

// transpose counting-sorts m's entries by column, taking rows in
// increasing order so that each column's rows stay increasing; nil when
// a row's columns are not strictly increasing inside [0, NumCols).
func (m *CSR) transpose() *colIndex {
	x := &colIndex{ptr: make([]int, m.NumCols+1)}
	for i := range m.NumRows {
		prev := -1
		for _, j := range m.Col[m.RowPtr[i]:m.RowPtr[i+1]] {
			if j <= prev || j >= m.NumCols {
				return nil
			}
			prev = j
			x.ptr[j+1]++
		}
	}
	for j := range m.NumCols {
		x.ptr[j+1] += x.ptr[j]
	}
	x.row, x.val = make([]int, len(m.Col)), make([]float64, len(m.Val))
	next := slices.Clone(x.ptr[:m.NumCols])
	for i := range m.NumRows {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			at := next[m.Col[k]]
			next[m.Col[k]]++
			x.row[at], x.val[at] = i, m.Val[k]
		}
	}
	return x
}

// span returns column j's entries in rows [lo, hi) of the n-row matrix:
// the whole column for the whole matrix, else the column narrowed by
// binary search.
func (x *colIndex) span(j, lo, hi, n int) (a, b int) {
	a, b = x.ptr[j], x.ptr[j+1]
	if lo > 0 {
		k, _ := slices.BinarySearch(x.row[a:b], lo)
		a += k
	}
	if hi < n {
		k, _ := slices.BinarySearch(x.row[a:b], hi)
		b = a + k
	}
	return a, b
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

// MulNTRange writes rows [lo,hi) of S = A·Wᵀ into the n×mRows s, with
// w feature-major (p×mRows). The row walk takes each row's nonzeros once
// for adjacent classes (gather); the column walk clears the rows and
// adds each column's products into them (scatter). Either way each
// element sums its products in increasing column order from +0, so
// results are bitwise identical to mulNTRangeRef on the class-major W.
func (m *CSR) MulNTRange(w []float64, mRows int, s []float64, lo, hi int) {
	if x := m.cols.Load(); x != nil {
		linalg.Zero(s[lo*mRows : hi*mRows])
		for j := range m.NumCols {
			if a, b := x.span(j, lo, hi, m.NumRows); a < b {
				scatter(x.row[a:b], x.val[a:b], s, m.NumRows, w[j*mRows:(j+1)*mRows])
			}
		}
		return
	}
	for i := lo; i < hi; i++ {
		start, end := m.RowPtr[i], m.RowPtr[i+1]
		gather(m.Col[start:end], m.Val[start:end], w, m.NumCols, mRows, s[i*mRows:(i+1)*mRows])
	}
}

// MulTNRange adds rows [lo,hi)'s contribution to G = Dᵀ·A into the
// feature-major g (p×mRows), walking rows: each row's products go into
// the rows of g its nonzeros name (scatter). Every element receives its
// contributions in (row, nonzero) order, so once g is laid out
// class-major results are bitwise identical to mulTNRangeRef. That
// includes its zero-weight skip: a skipped 0·v is ±0, which leaves a sum
// begun at +0 unchanged unless v is infinite or NaN, so only such a row
// with a zero weight takes the reference's class-by-class skip.
func (m *CSR) MulTNRange(d []float64, mRows int, g []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		di := d[i*mRows : (i+1)*mRows]
		start, end := m.RowPtr[i], m.RowPtr[i+1]
		cols, vals := m.Col[start:end], m.Val[start:end]
		if slices.Contains(di, 0) && !allFinite(vals) {
			axpySkip(cols, vals, g, mRows, di)
			continue
		}
		scatter(cols, vals, g, m.NumCols, di)
	}
}

// SetTNRange writes rows [lo,hi)'s contribution to G = Dᵀ·A over the
// feature-major g (p×mRows), walking the column index, which must exist:
// row j of g is column j's products over its rows in the range, summed
// in increasing row order from +0 (gather), or zero for a column with
// none there. Results are bitwise identical to mulTNRangeRef into a
// zeroed g, whose skip is never observable on an indexed matrix.
func (m *CSR) SetTNRange(d []float64, mRows int, g []float64, lo, hi int) {
	x := m.cols.Load()
	for j := range m.NumCols {
		gj := g[j*mRows : (j+1)*mRows]
		if a, b := x.span(j, lo, hi, m.NumRows); a < b {
			gather(x.row[a:b], x.val[a:b], d, m.NumRows, mRows, gj)
		} else {
			clear(gj)
		}
	}
}

// gather writes out[q] = Σ_k vals[k]·x[idx[k]·ld + q] for every class q
// of out, each sum in k order from +0: up to 20 classes per pass in AVX2
// lanes (lanePasses), or else six (then three, then one) in Go. Each Go
// pass is its own function so that its accumulators stay in registers.
// idx indexes the p rows of the strided x.
func gather(idx []int, vals, x []float64, p, ld int, out []float64) {
	if lanes && len(idx) > 0 {
		lanePasses(csrDot, idx, vals, x, p, ld, out)
		return
	}
	c := 0
	for ; c+6 <= len(out); c += 6 {
		out[c], out[c+1], out[c+2], out[c+3], out[c+4], out[c+5] = dot6(idx, vals, x[c:], ld)
	}
	for ; c+3 <= len(out); c += 3 {
		out[c], out[c+1], out[c+2] = dot3(idx, vals, x[c:], ld)
	}
	for ; c < len(out); c++ {
		out[c] = dot1(idx, vals, x[c:], ld)
	}
}

// scatter adds w[q]·vals[k] to x[idx[k]·len(w) + q] for every class q of
// w, in k order: up to 20 classes per pass in AVX2 lanes (lanePasses), or
// else six (then three) in Go registers and the rest through axpySkip.
// idx indexes the p rows of x.
func scatter(idx []int, vals, x []float64, p int, w []float64) {
	if lanes && len(idx) > 0 {
		lanePasses(csrAxpy, idx, vals, x, p, len(w), w)
		return
	}
	m, c := len(w), 0
	for ; c+6 <= m; c += 6 {
		axpy6(idx, vals, x[c:], m, w[c], w[c+1], w[c+2], w[c+3], w[c+4], w[c+5])
	}
	for ; c+3 <= m; c += 3 {
		axpy3(idx, vals, x[c:], m, w[c], w[c+1], w[c+2])
	}
	axpySkip(idx, vals, x[c:], m, w[c:])
}

// MulNT computes S = A·Wᵀ on dev: A is this CSR (n×p), w holds W
// feature-major (p×m), S is n×m row-major (overwritten).
func (m *CSR) MulNT(dev *device.Device, w []float64, mRows int, s []float64) {
	dev.MulNT(m, w, mRows, s)
}

// MulTN computes G = Dᵀ·A on dev: D is n×m dense, A is this CSR (n×p),
// g holds G feature-major (p×m, overwritten).
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

// RowRange returns rows [lo, hi) of m as a view: Col and Val are shared
// with m, and only the rebased row pointers are new.
func (m *CSR) RowRange(lo, hi int) *CSR {
	off, end := m.RowPtr[lo], m.RowPtr[hi]
	rowPtr := make([]int, hi-lo+1)
	for k := range rowPtr {
		rowPtr[k] = m.RowPtr[lo+k] - off
	}
	return &CSR{NumRows: hi - lo, NumCols: m.NumCols, RowPtr: rowPtr, Col: m.Col[off:end:end], Val: m.Val[off:end:end]}
}

// mulNTRangeRef is the naive reference for MulNTRange, with B
// class-major (mRows×p), kept for property tests.
func (m *CSR) mulNTRangeRef(b []float64, mRows int, s []float64, lo, hi int) {
	p := m.NumCols
	for i := lo; i < hi; i++ {
		si := s[i*mRows : (i+1)*mRows]
		start, end := m.RowPtr[i], m.RowPtr[i+1]
		for c := 0; c < mRows; c++ {
			bc := b[c*p : (c+1)*p]
			var acc float64
			for k := start; k < end; k++ {
				acc += float64(m.Val[k] * bc[m.Col[k]])
			}
			si[c] = acc
		}
	}
}

// mulTNRangeRef is the naive reference for MulTNRange, with G
// class-major (mRows×p), kept for property tests.
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
				gc[m.Col[k]] += float64(w * m.Val[k])
			}
		}
	}
}

// dot6 returns Σ_k vals[k]·b[cols[k]·stride + q] for q = 0..5.
func dot6(cols []int, vals, b []float64, stride int) (a0, a1, a2, a3, a4, a5 float64) {
	vals = vals[:len(cols)]
	for k, j := range cols {
		v := vals[k]
		w := b[j*stride : j*stride+6]
		a0 += float64(v * w[0])
		a1 += float64(v * w[1])
		a2 += float64(v * w[2])
		a3 += float64(v * w[3])
		a4 += float64(v * w[4])
		a5 += float64(v * w[5])
	}
	return
}

// dot3 returns Σ_k vals[k]·b[cols[k]·stride + q] for q = 0..2.
func dot3(cols []int, vals, b []float64, stride int) (a0, a1, a2 float64) {
	vals = vals[:len(cols)]
	for k, j := range cols {
		v := vals[k]
		w := b[j*stride : j*stride+3]
		a0 += float64(v * w[0])
		a1 += float64(v * w[1])
		a2 += float64(v * w[2])
	}
	return
}

// dot1 returns Σ_k vals[k]·b[cols[k]·stride].
func dot1(cols []int, vals, b []float64, stride int) (a float64) {
	vals = vals[:len(cols)]
	for k, j := range cols {
		a += float64(vals[k] * b[j*stride])
	}
	return
}

// lanes selects the AVX2 row kernels of lanes_amd64.s (PERF.md "Lanes").
// It is linalg's CPUID answer; only this package's tests flip it, to run
// the Go passes.
var lanes = linalg.LanesSupported()

// laneMask[k] enables the first k lanes of a four-lane vector.
var laneMask = [5][4]int64{{}, {-1}, {-1, -1}, {-1, -1, -1}, {-1, -1, -1, -1}}

// lanePasses runs one lane kernel (csrDot or csrAxpy) for the classes of
// row over the strided x, whose p rows are ld apart: 16 classes plus a
// 0–4-lane mask while 16 or more remain, else 1–4, so the entries are
// read once for 16–20 classes. idx is non-empty.
func lanePasses(kern func(cols *int, vals *float64, nnz int, x, row *float64, ld, p, full int, mask *[4]int64) bool,
	idx []int, vals, x []float64, p, ld int, row []float64) {
	m := len(row)
	vals, x = vals[:len(idx)], x[:(p-1)*ld+m]
	for c := 0; c < m; {
		full, k := 0, min(m-c, 4)
		if m-c >= 16 {
			full, k = 4, min(m-c-16, 4)
		}
		if !kern(&idx[0], &vals[0], len(idx), &x[c], &row[c], ld, p, full, &laneMask[k]) {
			panic(fmt.Sprintf("sparse: column index outside [0,%d)", p))
		}
		c += 4*full + k
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

// axpy6 adds w_q·vals[k] to g[cols[k]·stride + q] for q = 0..5.
func axpy6(cols []int, vals, g []float64, stride int, w0, w1, w2, w3, w4, w5 float64) {
	vals = vals[:len(cols)]
	for k, j := range cols {
		v := vals[k]
		x := g[j*stride : j*stride+6]
		x[0] += float64(w0 * v)
		x[1] += float64(w1 * v)
		x[2] += float64(w2 * v)
		x[3] += float64(w3 * v)
		x[4] += float64(w4 * v)
		x[5] += float64(w5 * v)
	}
}

// axpy3 adds w_q·vals[k] to g[cols[k]·stride + q] for q = 0..2.
func axpy3(cols []int, vals, g []float64, stride int, w0, w1, w2 float64) {
	vals = vals[:len(cols)]
	for k, j := range cols {
		v := vals[k]
		x := g[j*stride : j*stride+3]
		x[0] += float64(w0 * v)
		x[1] += float64(w1 * v)
		x[2] += float64(w2 * v)
	}
}

// axpySkip adds w[q]·vals[k] to g[cols[k]·stride + q] one class at a
// time, skipping zero weights as mulTNRangeRef does (the last classes of
// every row, and whole rows whose skips are observable).
func axpySkip(cols []int, vals, g []float64, stride int, w []float64) {
	vals = vals[:len(cols)]
	for q, wq := range w {
		if wq == 0 {
			continue
		}
		gq := g[q:]
		for k, j := range cols {
			gq[j*stride] += float64(wq * vals[k])
		}
	}
}
