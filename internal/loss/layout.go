package loss

// The solver keeps the (C-1)·p parameter vector feature-major: w[j*m+c]
// is class c's weight on feature j (m = C-1), so a product reads each
// feature's m class weights as one contiguous run. The public model
// (Model.Weights, model files, the serving tier's class shards) is
// class-major: w[c*p+j]. ToModel and FromModel are the one conversion
// pair between the two; with m = 1 the layouts coincide.

// Layout names the solver's layout. dist.Run puts it in the checkpoint
// fingerprint, since snapshots hold solver state in this layout.
const Layout = "feature-major p×m"

// ToModel writes the solver-layout x (p×m) into dst class-major (m×p)
// and returns dst, allocating it when nil. dst must not alias x.
func ToModel(dst, x []float64, m int) []float64 {
	dst = layoutDst(dst, x, m)
	p := len(x) / m
	for j := 0; j < p; j++ {
		for c, v := range x[j*m : (j+1)*m] {
			dst[c*p+j] = v
		}
	}
	return dst
}

// FromModel writes the class-major w (m×p) into dst in the solver's
// layout (p×m) and returns dst, allocating it when nil. dst must not
// alias w.
func FromModel(dst, w []float64, m int) []float64 {
	dst = layoutDst(dst, w, m)
	p := len(w) / m
	for c := 0; c < m; c++ {
		for j, v := range w[c*p : (c+1)*p] {
			dst[j*m+c] = v
		}
	}
	return dst
}

func layoutDst(dst, src []float64, m int) []float64 {
	if m <= 0 || len(src)%m != 0 {
		panic("loss: weight vector is not m blocks")
	}
	if dst == nil {
		return make([]float64, len(src))
	}
	if len(dst) != len(src) {
		panic("loss: layout destination dimension mismatch")
	}
	return dst
}
