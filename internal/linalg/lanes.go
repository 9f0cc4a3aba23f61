package linalg

// lanes selects the AVX2 path of the dense range kernels (PERF.md
// "Lanes"). It is decided once, by CPUID (lanesSupported); only this
// package's tests flip it, to run the Go loops.
var lanes = lanesSupported

// LanesSupported reports whether this CPU runs AVX2 lanes: the one CPUID
// answer, also read by internal/sparse for its CSR lanes.
func LanesSupported() bool { return lanesSupported }

// laneMask[k] enables the first k lanes of a four-lane tile.
var laneMask = [5][4]int64{{}, {-1}, {-1, -1}, {-1, -1, -1}, {-1, -1, -1, -1}}

// mulNTLanes is MulNTRange on the lanes: four rows at a time, and each
// leftover row as a tile whose four lanes read the same row and store to
// the same place (row and score strides 0). Each S element sums its
// products in increasing-j order from +0, as MulNTRangeRef does.
func (a *Matrix) mulNTLanes(w []float64, m int, s []float64, lo, hi int) {
	p := a.Cols
	if p == 0 || m == 0 {
		clear(s[lo*m : hi*m])
		return
	}
	i := lo
	for ; i+4 <= hi; i += 4 {
		scoreTiles(a.Data[i*p:(i+4)*p], p, w, m, s[i*m:(i+4)*m], m)
	}
	for ; i < hi; i++ {
		scoreTiles(a.Data[i*p:(i+1)*p], 0, w, m, s[i*m:(i+1)*m], 0)
	}
}

// scoreTiles scores four rows of a (lda floats apart) against the p×m w
// into s (lds floats apart): eight classes per scores8 tile and the last
// 1–7 in masked four-lane scores4 tiles.
func scoreTiles(a []float64, lda int, w []float64, m int, s []float64, lds int) {
	p := len(w) / m
	a = a[:3*lda+p]
	c := 0
	for ; c+8 <= m; c += 8 {
		wt, st := w[c:(p-1)*m+c+8], s[c:3*lds+c+8]
		scores8(&a[0], lda, &wt[0], m, p, &st[0], lds)
	}
	for ; c < m; c += 4 {
		k := min(m-c, 4)
		wt, st := w[c:(p-1)*m+c+k], s[c:3*lds+c+k]
		scores4(&a[0], lda, &wt[0], m, p, &st[0], lds, &laneMask[k])
	}
}

// mulTNLanes adds the contribution of rows [lo,hi)'s leading multiple of
// four to the p×m g and returns the first row it left to MulTNRange's Go
// loop: per four rows, the 4×8 (or masked 4×1–4) D tile is held in
// registers while G's rows stream past. Each G element receives its
// rows' products in increasing-i order, as MulTNRangeRef does.
func (a *Matrix) mulTNLanes(d []float64, m int, g []float64, lo, hi int) int {
	p := a.Cols
	if p == 0 || m == 0 {
		return hi
	}
	i := lo
	for ; i+4 <= hi; i += 4 {
		ai := a.Data[i*p : (i+4)*p]
		di := d[i*m : (i+4)*m]
		c := 0
		for ; c+8 <= m; c += 8 {
			dt, gt := di[c:3*m+c+8], g[c:(p-1)*m+c+8]
			accum8(&ai[0], p, &dt[0], m, p, &gt[0], m)
		}
		for ; c < m; c += 4 {
			k := min(m-c, 4)
			dt, gt := di[c:3*m+c+k], g[c:(p-1)*m+c+k]
			accum4(&ai[0], p, &dt[0], m, p, &gt[0], m, &laneMask[k])
		}
	}
	return i
}
