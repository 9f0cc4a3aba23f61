package linalg

// lanes selects the feature-major AVX2 path of the dense range kernels
// (PERF.md "Lanes"). It is decided once, by CPUID (lanesSupported);
// only this package's tests flip it, to run the class-major fallback.
var lanes = lanesSupported

// laneRows is the fewest rows a matrix runs the lanes on: below it the
// device's copies of W and G into p×m cost more than the tiles save
// (one-row scoring, for one, stays class-major).
const laneRows = 8

// laneMask[k] enables the first k lanes of a four-lane tile.
var laneMask = [5][4]int64{{}, {-1}, {-1, -1}, {-1, -1, -1}, {-1, -1, -1, -1}}

// mulNTLanes is MulNTRange with w feature-major (p×m): four rows at a
// time, eight classes per scores8 tile and the last 1–7 in masked
// four-lane scores4 tiles; rows past the last full four run the Go loop
// below. Each S element sums its products in increasing-j order from +0,
// as MulNTRangeRef does.
func (a *Matrix) mulNTLanes(w []float64, m int, s []float64, lo, hi int) {
	p := a.Cols
	if p == 0 {
		clear(s[lo*m : hi*m])
		return
	}
	i := lo
	for ; i+4 <= hi; i += 4 {
		ai := a.Data[i*p : (i+4)*p]
		si := s[i*m : (i+4)*m]
		c := 0
		for ; c+8 <= m; c += 8 {
			wt, st := w[c:(p-1)*m+c+8], si[c:3*m+c+8]
			scores8(&ai[0], p, &wt[0], m, p, &st[0], m)
		}
		for ; c < m; c += 4 {
			k := min(m-c, 4)
			wt, st := w[c:(p-1)*m+c+k], si[c:3*m+c+k]
			scores4(&ai[0], p, &wt[0], m, p, &st[0], m, &laneMask[k])
		}
	}
	for ; i < hi; i++ {
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

// mulTNLanes is MulTNRange with g feature-major (p×m): four rows at a
// time, the 4×8 (or masked 4×1–4) D tile held in registers while G's
// rows stream past; rows past the last full four run the Go loop below.
// Each G element receives its rows' products in increasing-i order, as
// MulTNRangeRef does (its zero-weight skip is a bitwise no-op here, as
// for the class-major quads).
func (a *Matrix) mulTNLanes(d []float64, m int, g []float64, lo, hi int) {
	p := a.Cols
	if p == 0 {
		return
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
