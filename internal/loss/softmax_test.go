package loss

import (
	"math"
	"math/rand"
	"testing"

	"newtonadmm/internal/device"
	"newtonadmm/internal/linalg"
	"newtonadmm/internal/sparse"
)

var testDev = device.New("loss-test", 4)

func randProblem(rng *rand.Rand, n, p, classes int, l2 float64) *Softmax {
	x := linalg.NewMatrix(n, p)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := make([]int, n)
	for i := range y {
		y[i] = rng.Intn(classes)
	}
	s, err := NewSoftmax(testDev, Dense{M: x}, y, classes, l2)
	if err != nil {
		panic(err)
	}
	return s
}

func randW(rng *rand.Rand, dim int) []float64 {
	w := make([]float64, dim)
	for i := range w {
		w[i] = 0.5 * rng.NormFloat64()
	}
	return w
}

// central finite difference of Value along coordinate j.
func fdGrad(p Problem, w []float64, j int, h float64) float64 {
	wp := linalg.Clone(w)
	wm := linalg.Clone(w)
	wp[j] += h
	wm[j] -= h
	return (p.Value(wp) - p.Value(wm)) / (2 * h)
}

func TestNewSoftmaxValidation(t *testing.T) {
	x := linalg.NewMatrix(3, 2)
	if _, err := NewSoftmax(testDev, Dense{M: x}, []int{0, 1, 0}, 1, 0); err == nil {
		t.Fatal("classes < 2 accepted")
	}
	if _, err := NewSoftmax(testDev, Dense{M: x}, []int{0, 1}, 2, 0); err == nil {
		t.Fatal("label count mismatch accepted")
	}
	if _, err := NewSoftmax(testDev, Dense{M: x}, []int{0, 2, 0}, 2, 0); err == nil {
		t.Fatal("out-of-range label accepted")
	}
	if _, err := NewSoftmax(testDev, Dense{M: x}, []int{0, 1, 0}, 2, -1); err == nil {
		t.Fatal("negative L2 accepted")
	}
	if _, err := NewSoftmax(testDev, Dense{M: x}, []int{0, 1, 0}, 2, 0.1); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
}

func TestGradientMatchesFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, classes := range []int{2, 3, 5} {
		s := randProblem(rng, 40, 7, classes, 0.1)
		w := randW(rng, s.Dim())
		g := make([]float64, s.Dim())
		s.Gradient(w, g)
		for trial := 0; trial < 10; trial++ {
			j := rng.Intn(s.Dim())
			fd := fdGrad(s, w, j, 1e-5)
			if math.Abs(g[j]-fd) > 1e-4*math.Max(1, math.Abs(fd)) {
				t.Fatalf("C=%d: grad[%d]=%v, fd=%v", classes, j, g[j], fd)
			}
		}
	}
}

func TestGradientReturnsValue(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := randProblem(rng, 25, 4, 3, 0.05)
	w := randW(rng, s.Dim())
	g := make([]float64, s.Dim())
	v1 := s.Gradient(w, g)
	v2 := s.Value(w)
	if math.Abs(v1-v2) > 1e-10*math.Max(1, math.Abs(v2)) {
		t.Fatalf("fused value %v != Value %v", v1, v2)
	}
}

func TestHessVecMatchesGradientDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, classes := range []int{2, 4} {
		s := randProblem(rng, 30, 6, classes, 0.2)
		w := randW(rng, s.Dim())
		h := s.HessianAt(w)
		v := randW(rng, s.Dim())
		hv := make([]float64, s.Dim())
		h.Apply(v, hv)

		// central difference of the gradient along direction v
		eps := 1e-5
		wp, wm := linalg.Clone(w), linalg.Clone(w)
		linalg.Axpy(eps, v, wp)
		linalg.Axpy(-eps, v, wm)
		gp := make([]float64, s.Dim())
		gm := make([]float64, s.Dim())
		s.Gradient(wp, gp)
		s.Gradient(wm, gm)
		for j := range hv {
			fd := (gp[j] - gm[j]) / (2 * eps)
			if math.Abs(hv[j]-fd) > 1e-3*math.Max(1, math.Abs(fd)) {
				t.Fatalf("C=%d: Hv[%d]=%v, fd=%v", classes, j, hv[j], fd)
			}
		}
	}
}

func TestHessianPositiveSemidefiniteProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	s := randProblem(rng, 50, 5, 3, 0)
	w := randW(rng, s.Dim())
	h := s.HessianAt(w)
	hv := make([]float64, s.Dim())
	for trial := 0; trial < 30; trial++ {
		v := randW(rng, s.Dim())
		h.Apply(v, hv)
		if q := linalg.Dot(v, hv); q < -1e-9 {
			t.Fatalf("Hessian not PSD: v^T H v = %v", q)
		}
	}
}

func TestHessianLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	s := randProblem(rng, 20, 4, 3, 0.3)
	w := randW(rng, s.Dim())
	h := s.HessianAt(w)
	d := s.Dim()
	u, v := randW(rng, d), randW(rng, d)
	alpha := rng.NormFloat64()
	comb := make([]float64, d)
	linalg.Waxpby(alpha, u, 1, v, comb)
	hu, hvv, hc := make([]float64, d), make([]float64, d), make([]float64, d)
	h.Apply(u, hu)
	h.Apply(v, hvv)
	h.Apply(comb, hc)
	for j := 0; j < d; j++ {
		want := alpha*hu[j] + hvv[j]
		if math.Abs(hc[j]-want) > 1e-9*math.Max(1, math.Abs(want)) {
			t.Fatalf("H not linear at %d: %v vs %v", j, hc[j], want)
		}
	}
}

func TestLogSumExpStability(t *testing.T) {
	// Huge positive and huge negative scores must not overflow.
	dev := testDev
	x := linalg.NewMatrix(2, 1)
	x.Set(0, 0, 1)
	x.Set(1, 0, -1)
	s, err := NewSoftmax(dev, Dense{M: x}, []int{0, 1}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []float64{1e3, 1e5, 1e8} {
		w := []float64{scale}
		v := s.Value(w)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("Value overflowed at scale %v: %v", scale, v)
		}
		// Sample 0 has score=scale, label 0 -> loss ~ 0. Sample 1 has
		// score=-scale, label 1 (reference) -> loss ~ 0.
		if v > 1e-6 {
			t.Fatalf("Value at scale %v = %v, want ~0", scale, v)
		}
		g := make([]float64, 1)
		s.Gradient(w, g)
		if !linalg.AllFinite(g) {
			t.Fatalf("gradient overflowed at scale %v", scale)
		}
	}
}

func TestBinaryMatchesManualLogistic(t *testing.T) {
	// For C=2 the objective must equal sum_i log(1+e^{s_i}) - 1(y=0) s_i.
	rng := rand.New(rand.NewSource(25))
	n, p := 30, 4
	x := linalg.NewMatrix(n, p)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := make([]int, n)
	for i := range y {
		y[i] = rng.Intn(2)
	}
	s, err := NewSoftmax(testDev, Dense{M: x}, y, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	w := randW(rng, p)
	var want float64
	for i := 0; i < n; i++ {
		score := linalg.Dot(x.Row(i), w)
		want += math.Log(1 + math.Exp(score))
		if y[i] == 0 {
			want -= score
		}
	}
	nrm := linalg.Nrm2(w)
	want += 0.05 * nrm * nrm
	if got := s.Value(w); math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("binary Value = %v, want %v", got, want)
	}
}

func TestSparseDenseAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	n, p, classes := 40, 12, 4
	x := linalg.NewMatrix(n, p)
	for i := range x.Data {
		if rng.Float64() < 0.3 {
			x.Data[i] = rng.NormFloat64()
		}
	}
	y := make([]int, n)
	for i := range y {
		y[i] = rng.Intn(classes)
	}
	dense, _ := NewSoftmax(testDev, Dense{M: x}, y, classes, 0.1)
	sp, _ := NewSoftmax(testDev, Sparse{M: sparse.FromDense(x)}, y, classes, 0.1)
	w := randW(rng, dense.Dim())
	if dv, sv := dense.Value(w), sp.Value(w); math.Abs(dv-sv) > 1e-9*math.Max(1, math.Abs(dv)) {
		t.Fatalf("dense Value %v != sparse Value %v", dv, sv)
	}
	gd := make([]float64, dense.Dim())
	gs := make([]float64, dense.Dim())
	dense.Gradient(w, gd)
	sp.Gradient(w, gs)
	for j := range gd {
		if math.Abs(gd[j]-gs[j]) > 1e-9*math.Max(1, math.Abs(gd[j])) {
			t.Fatalf("gradient mismatch at %d: %v vs %v", j, gd[j], gs[j])
		}
	}
	hd := dense.HessianAt(w)
	hs := sp.HessianAt(w)
	v := randW(rng, dense.Dim())
	hvd := make([]float64, dense.Dim())
	hvs := make([]float64, dense.Dim())
	hd.Apply(v, hvd)
	hs.Apply(v, hvs)
	for j := range hvd {
		if math.Abs(hvd[j]-hvs[j]) > 1e-9*math.Max(1, math.Abs(hvd[j])) {
			t.Fatalf("Hv mismatch at %d: %v vs %v", j, hvd[j], hvs[j])
		}
	}
}

func TestSubproblemPartitionSumsToWhole(t *testing.T) {
	// Splitting rows into shards must give sum_i f_i = F (values and grads),
	// which is the invariant the distributed objective relies on.
	rng := rand.New(rand.NewSource(27))
	s := randProblem(rng, 36, 5, 3, 0.7)
	w := randW(rng, s.Dim())
	idxA := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}
	idxB := []int{12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23}
	idxC := []int{24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35}
	var sumV float64
	sumG := make([]float64, s.Dim())
	g := make([]float64, s.Dim())
	for _, idx := range [][]int{idxA, idxB, idxC} {
		sub := s.Subproblem(idx)
		sumV += sub.Gradient(w, g)
		linalg.Add(sumG, g)
	}
	fullV := s.Gradient(w, g)
	if math.Abs(sumV-fullV) > 1e-9*math.Max(1, math.Abs(fullV)) {
		t.Fatalf("shard values sum to %v, want %v", sumV, fullV)
	}
	for j := range g {
		if math.Abs(sumG[j]-g[j]) > 1e-9*math.Max(1, math.Abs(g[j])) {
			t.Fatalf("shard gradients sum mismatch at %d", j)
		}
	}
}

func TestPredictAndAccuracy(t *testing.T) {
	// Two well-separated clusters in 1-D, binary classification.
	x := linalg.NewMatrix(4, 1)
	x.Data = []float64{5, 4, -5, -4}
	y := []int{0, 0, 1, 1}
	s, err := NewSoftmax(testDev, Dense{M: x}, y, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{2} // positive score -> class 0
	pred := s.Predict(Dense{M: x}, w)
	want := []int{0, 0, 1, 1}
	for i := range want {
		if pred[i] != want[i] {
			t.Fatalf("Predict = %v, want %v", pred, want)
		}
	}
	if acc := s.Accuracy(Dense{M: x}, y, w); acc != 1 {
		t.Fatalf("Accuracy = %v, want 1", acc)
	}
	if acc := s.Accuracy(Dense{M: x}, []int{1, 1, 0, 0}, w); acc != 0 {
		t.Fatalf("Accuracy on flipped labels = %v, want 0", acc)
	}
}

func TestPredictReferenceClassWins(t *testing.T) {
	// All explicit scores negative -> reference class C-1.
	x := linalg.NewMatrix(1, 2)
	x.Data = []float64{1, 1}
	s, err := NewSoftmax(testDev, Dense{M: x}, []int{2}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	w := []float64{-1, -1, -2, -2} // both class scores negative
	if pred := s.Predict(Dense{M: x}, w); pred[0] != 2 {
		t.Fatalf("Predict = %d, want reference class 2", pred[0])
	}
}

func TestValueAtZeroIsNLogC(t *testing.T) {
	// At w=0 every class has probability 1/C, so F(0) = n*log(C).
	rng := rand.New(rand.NewSource(28))
	for _, classes := range []int{2, 3, 10} {
		s := randProblem(rng, 17, 3, classes, 0.5)
		w := make([]float64, s.Dim())
		want := 17 * math.Log(float64(classes))
		if got := s.Value(w); math.Abs(got-want) > 1e-9*want {
			t.Fatalf("C=%d: F(0)=%v, want %v", classes, got, want)
		}
	}
}

// TestSharedCSRObjectivesIndexOnce builds the training objective over
// one CSR from several goroutines at once, each on its own device, as
// experiments sharing a dataset do: the column index is built without a
// race, and every objective's value, gradient and Hessian-vector product
// match, bit for bit, those of the same rows walked by row on a device
// of the same width.
func TestSharedCSRObjectivesIndexOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	n, p, classes := 260, 120, 21
	x := linalg.NewMatrix(n, p)
	for i := range x.Data {
		if rng.Float64() < 0.1 {
			x.Data[i] = rng.NormFloat64()
		}
	}
	y := make([]int, n)
	for i := range y {
		y[i] = rng.Intn(classes)
	}
	shared := sparse.FromDense(x)
	rows := shared.RowRange(0, n) // a view no objective here indexes
	dim := (classes - 1) * p
	w, v := randW(rng, dim), randW(rng, dim)
	type result struct {
		val   float64
		g, hv []float64
	}
	eval := func(s *Softmax) result {
		r := result{g: make([]float64, dim), hv: make([]float64, dim)}
		r.val = s.Gradient(w, r.g)
		s.HessianAt(w).Apply(v, r.hv)
		return r
	}
	workers := []int{1, 2, 3, 1, 2, 3}
	want := map[int]result{}
	for _, k := range workers[:3] {
		dev := device.New("row-walk", k)
		want[k] = eval(&Softmax{X: Sparse{M: rows}, Y: y, C: classes, L2: 0.01, Dev: dev})
		dev.Close()
	}
	got := make([]result, len(workers))
	done := make(chan error, len(workers))
	for i, k := range workers {
		go func() {
			dev := device.New("shared-csr", k)
			defer dev.Close()
			s, err := NewSoftmax(dev, Sparse{M: shared}, y, classes, 0.01)
			if err == nil {
				got[i] = eval(s)
			}
			done <- err
		}()
	}
	for range workers {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if !shared.ColumnIndexed() || rows.ColumnIndexed() {
		t.Fatalf("indexed: shared %v, row view %v; want true, false", shared.ColumnIndexed(), rows.ColumnIndexed())
	}
	for i, k := range workers {
		r, ref := got[i], want[k]
		if math.Float64bits(r.val) != math.Float64bits(ref.val) {
			t.Errorf("goroutine %d (%d workers): value %v, row walk %v", i, k, r.val, ref.val)
		}
		for j := range ref.g {
			if math.Float64bits(r.g[j]) != math.Float64bits(ref.g[j]) || math.Float64bits(r.hv[j]) != math.Float64bits(ref.hv[j]) {
				t.Fatalf("goroutine %d (%d workers): gradient or Hv differs from the row walk at %d", i, k, j)
			}
		}
	}
}
