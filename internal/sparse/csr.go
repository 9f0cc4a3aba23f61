// Package sparse implements a compressed sparse row (CSR) matrix with the
// device-parallel products needed by the softmax loss. The paper's E18
// dataset has ~280k features where forming dense structures (let alone the
// Hessian) is infeasible; CSR plus Hessian-free products is the code path
// that makes that experiment possible.
//
// The products mirror the dense kernel layer: register-blocked over four
// output classes (each nonzero's value and column index are loaded once
// and feed four outputs), chunk accumulators drawn from the device scratch
// arena (zero steady-state allocation), and a fused MulNTReduce launch.
// A matrix with at least as many stored entries as columns runs them
// feature-major: W is copied to p×m in the arena so each nonzero reads
// its class weights as one contiguous run (PERF.md "CSR layout"). The
// unexported *Ref methods keep the naive loops as the bitwise reference
// for property tests; both layouts match them bit for bit.
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
// Like the loss objectives that own them, a CSR matrix is a single-stream
// structure for compute: its product methods reuse per-matrix kernel
// state, so concurrent products on the same CSR are not allowed (reads
// like At/ToDense are safe).
type CSR struct {
	NumRows, NumCols int
	RowPtr           []int
	Col              []int
	Val              []float64

	// Persistent kernel parameter block, reused across launches so
	// steady-state products allocate nothing.
	k csrKernel
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

// featureMajor reports whether products on m run in the feature-major
// layout: with at least as many stored entries as columns, copying W
// (m×p) to p×m and G back costs less than the scattered reads it saves,
// since each nonzero then touches its m class weights as one contiguous
// run instead of m cache lines p floats apart. Few-row products, such as
// single-row sparse scoring, stay class-major.
func (m *CSR) featureMajor() bool { return m.NNZ() >= m.NumCols }

// transposeTile is the column width of the layout copies: a tile of
// transposeTile × mRows floats stays in L1 while it is scattered.
const transposeTile = 64

// toFeatureMajor copies the mRows × p row-major b into bt as p × mRows.
func toFeatureMajor(b []float64, mRows, p int, bt []float64) {
	for j0 := 0; j0 < p; j0 += transposeTile {
		j1 := min(j0+transposeTile, p)
		for c := 0; c < mRows; c++ {
			for j, v := range b[c*p+j0 : c*p+j1] {
				bt[(j0+j)*mRows+c] = v
			}
		}
	}
}

// toClassMajor copies the p × mRows gt into g as mRows × p row-major.
func toClassMajor(gt []float64, mRows, p int, g []float64) {
	for j0 := 0; j0 < p; j0 += transposeTile {
		j1 := min(j0+transposeTile, p)
		for c := 0; c < mRows; c++ {
			gc := g[c*p+j0 : c*p+j1]
			for j := range gc {
				gc[j] = gt[(j0+j)*mRows+c]
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

// csrKernel is the one persistent parameter block of the CSR launches.
// Per row panel it runs up to three passes: scores S = A·Bᵀ when b is
// set, fn over the fresh rows when fn is set, and G += Sᵀ·A when g is
// set (s is then the D operand). Only the fused gradient, which has all
// three, is panelled by device.GradPanel, so each panel's CSR rows are
// still cache-resident for the accumulation sweep.
type csrKernel struct {
	m        *CSR
	fm       bool      // b and g are feature-major (p × r)
	b        []float64 // weights; nil skips the score pass
	r        int
	s        []float64
	fn       func(lo, hi int) float64
	partials []float64
	g        []float64   // accumulator; nil skips the accumulation pass
	parts    [][]float64 // chunk accumulators; nil on the single-chunk path
}

func (k *csrKernel) Run(chunk, lo, hi int) {
	dst := k.g
	if k.parts != nil {
		dst = k.parts[chunk]
		linalg.Zero(dst)
	}
	panel := hi - lo
	if k.b != nil && k.g != nil {
		panel = device.GradPanel
	}
	var sum float64
	for plo := lo; plo < hi; plo += panel {
		phi := min(plo+panel, hi)
		switch {
		case k.b == nil:
		case k.fm:
			k.m.mulNTRangeFM(k.b, k.r, k.s, plo, phi)
		default:
			k.m.mulNTRange(k.b, k.r, k.s, plo, phi)
		}
		if k.fn != nil {
			sum += k.fn(plo, phi)
		}
		switch {
		case k.g == nil:
		case k.fm:
			k.m.mulTNRangeFM(k.s, k.r, dst, plo, phi)
		default:
			k.m.mulTNRange(k.s, k.r, dst, plo, phi)
		}
	}
	if k.partials != nil {
		k.partials[chunk] = sum
	}
}

// launch runs the CSR kernel over all rows and returns the chunk-ordered
// sum of fn's partials; g (if any) is overwritten with the chunk parts
// summed in chunk order. On the feature-major path b is first copied
// into the device arena, and G is accumulated there and copied back
// once. Copying a sum where the class-major path adds it to a zeroed g
// keeps every bit: a sum that starts at +0 is never -0, so 0+x == x.
func (m *CSR) launch(dev *device.Device, b []float64, r int, s []float64, fn func(lo, hi int) float64, g []float64) float64 {
	if m.NumRows == 0 {
		if g != nil {
			linalg.Zero(g)
		}
		return 0
	}
	chunks := dev.ChunkCount(m.NumRows, 0)
	k := &m.k
	k.m, k.fm, k.b, k.r, k.s, k.fn, k.g = m, m.featureMajor(), b, r, s, fn, g
	if k.fm {
		bt, gt := dev.ScratchLayout(r * m.NumCols)
		if b != nil {
			toFeatureMajor(b, r, m.NumCols, bt)
			k.b = bt
		}
		if g != nil {
			k.g = gt
		}
	}
	if fn != nil {
		k.partials = dev.ScratchPartials(chunks)
	}
	if g != nil && chunks == 1 {
		linalg.Zero(k.g)
	}
	if g != nil && chunks > 1 {
		k.parts = dev.ScratchParts(chunks, len(g))
	}
	dev.Launch(m.NumRows, 0, k)
	if g != nil {
		acc := k.g
		if k.parts != nil {
			acc = k.parts[0]
			for _, part := range k.parts[1:] {
				linalg.Add(acc, part)
			}
		}
		switch {
		case k.fm:
			toClassMajor(acc, r, m.NumCols, g)
		case k.parts != nil:
			copy(g, acc)
		}
	}
	var total float64
	for _, p := range k.partials {
		total += p
	}
	*k = csrKernel{}
	return total
}

// MulNT computes S = A * B^T on the device: A is this CSR (n x p), B is
// m x p row-major dense, S is n x m row-major (overwritten).
func (m *CSR) MulNT(dev *device.Device, b []float64, mRows int, s []float64) {
	if len(b) != mRows*m.NumCols {
		panic("sparse: MulNT B dimension mismatch")
	}
	if len(s) != m.NumRows*mRows {
		panic("sparse: MulNT output dimension mismatch")
	}
	m.launch(dev, b, mRows, s, nil, nil)
	dev.AddFLOPs(2 * int64(m.NNZ()) * int64(mRows))
	dev.AddBytes(8 * (int64(m.NNZ()) + int64(len(b)) + int64(len(s))))
}

// MulNTReduce computes S = A * B^T and applies fn over each row range of
// the fresh output tile in the same launch, returning the chunk-ordered
// sum of partials — the CSR twin of device.MulNTReduce. fn must only
// touch rows [lo, hi) of S and be safe on disjoint ranges concurrently.
func (m *CSR) MulNTReduce(dev *device.Device, b []float64, mRows int, s []float64, fn func(lo, hi int) float64) float64 {
	if len(b) != mRows*m.NumCols {
		panic("sparse: MulNTReduce B dimension mismatch")
	}
	if len(s) != m.NumRows*mRows {
		panic("sparse: MulNTReduce output dimension mismatch")
	}
	total := m.launch(dev, b, mRows, s, fn, nil)
	dev.AddFLOPs(2 * int64(m.NNZ()) * int64(mRows))
	dev.AddBytes(8 * (int64(m.NNZ()) + int64(len(b)) + int64(len(s))))
	return total
}

// FusedGradient runs S = A·Bᵀ, applies fn to each fresh row range of S
// (in place), and accumulates G = Sᵀ·A in one launch that streams the
// CSR data once — the sparse twin of device.FusedGradient, with the same
// bitwise guarantee for G and chunk/panel-deterministic partials.
func (m *CSR) FusedGradient(dev *device.Device, b []float64, mRows int, s []float64, fn func(lo, hi int) float64, g []float64) float64 {
	if len(b) != mRows*m.NumCols {
		panic("sparse: FusedGradient B dimension mismatch")
	}
	if len(s) != m.NumRows*mRows {
		panic("sparse: FusedGradient score dimension mismatch")
	}
	if len(g) != mRows*m.NumCols {
		panic("sparse: FusedGradient output dimension mismatch")
	}
	total := m.launch(dev, b, mRows, s, fn, g)
	dev.AddFLOPs(4 * int64(m.NNZ()) * int64(mRows))
	dev.AddBytes(8 * (int64(m.NNZ()) + int64(len(b)) + int64(len(s)) + int64(len(g))))
	return total
}

// MulTN computes G = D^T * A on the device: D is n x m dense, A is this
// CSR (n x p), G is m x p (overwritten). Chunk-private arena accumulators
// are reduced in chunk order, as in the dense device kernel, so results
// are deterministic across runs; steady-state calls allocate nothing.
func (m *CSR) MulTN(dev *device.Device, d []float64, mRows int, g []float64) {
	if len(d) != m.NumRows*mRows {
		panic("sparse: MulTN D dimension mismatch")
	}
	if len(g) != mRows*m.NumCols {
		panic("sparse: MulTN output dimension mismatch")
	}
	m.launch(dev, nil, mRows, d, nil, g)
	dev.AddFLOPs(2 * int64(m.NNZ()) * int64(mRows))
	dev.AddBytes(8 * (int64(m.NNZ()) + int64(len(d)) + int64(len(g))))
}
