package newton

import (
	"math"
	"math/rand"
	"testing"

	"newtonadmm/internal/cg"
	"newtonadmm/internal/device"
	"newtonadmm/internal/linalg"
	"newtonadmm/internal/loss"
)

var testDev = device.New("newton-test", 4)

func randSPD(rng *rand.Rand, d int, shift float64) *linalg.Matrix {
	b := linalg.NewMatrix(d, d)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := linalg.NewMatrix(d, d)
	for i := 0; i < d; i++ {
		for j := 0; j < d; j++ {
			var acc float64
			for k := 0; k < d; k++ {
				acc += b.At(k, i) * b.At(k, j)
			}
			a.Set(i, j, acc)
		}
		a.Set(i, i, a.At(i, i)+shift)
	}
	return a
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestQuadraticConvergesInOneStep(t *testing.T) {
	// With exact CG, Newton solves a strictly convex quadratic in one
	// iteration from any start.
	rng := rand.New(rand.NewSource(50))
	d := 10
	q := &loss.Quadratic{A: randSPD(rng, d, 1), B: randVec(rng, d)}
	x := randVec(rng, d)
	res := Solve(q, x, Options{
		MaxIters: 5, GradTol: 1e-8,
		CG: cg.Options{MaxIters: 10 * d, RelTol: 1e-12},
	})
	if !res.Converged {
		t.Fatalf("Newton did not converge: %+v", res)
	}
	if res.Iters > 2 {
		t.Fatalf("quadratic took %d Newton iterations, want <=2", res.Iters)
	}
	// Verify optimality: A x = b
	ax := make([]float64, d)
	linalg.MulNT(q.A, x, 1, ax)
	if linalg.Dist2(ax, q.B) > 1e-5 {
		t.Fatalf("solution residual = %v", linalg.Dist2(ax, q.B))
	}
}

func makeSoftmax(rng *rand.Rand, n, p, classes int, l2 float64) *loss.Softmax {
	x := linalg.NewMatrix(n, p)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	y := make([]int, n)
	for i := range y {
		y[i] = rng.Intn(classes)
	}
	s, err := loss.NewSoftmax(testDev, loss.Dense{M: x}, y, classes, l2)
	if err != nil {
		panic(err)
	}
	return s
}

func TestSoftmaxConvergesToStationaryPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	s := makeSoftmax(rng, 80, 6, 3, 0.5)
	x := make([]float64, s.Dim())
	res := Solve(s, x, Options{MaxIters: 50, GradTol: 1e-7})
	if !res.Converged {
		t.Fatalf("Newton on softmax did not converge: grad %v after %d iters", res.GradNorm, res.Iters)
	}
	g := make([]float64, s.Dim())
	s.Gradient(x, g)
	if linalg.Nrm2(g) > 1e-6 {
		t.Fatalf("gradient at solution = %v", linalg.Nrm2(g))
	}
}

func TestMonotoneDecrease(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	s := makeSoftmax(rng, 60, 5, 4, 0.1)
	x := randVec(rng, s.Dim())
	res := Solve(s, x, Options{MaxIters: 20, GradTol: 0})
	prev := math.Inf(1)
	for _, st := range res.Trace {
		if st.Value > prev+1e-12 {
			t.Fatalf("objective increased at iter %d: %v -> %v", st.Iter, prev, st.Value)
		}
		if st.NewValue > st.Value+1e-12 {
			t.Fatalf("line search accepted increase at iter %d", st.Iter)
		}
		prev = st.Value
	}
}

func TestGradTolImmediateStop(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	d := 5
	q := &loss.Quadratic{A: randSPD(rng, d, 1), B: make([]float64, d)}
	x := make([]float64, d) // already optimal: g = -b = 0
	res := Solve(q, x, Options{MaxIters: 10, GradTol: 1e-10})
	if !res.Converged || res.Iters != 0 {
		t.Fatalf("expected immediate convergence: %+v", res)
	}
}

// countingProblem counts gradient evaluations.
type countingProblem struct {
	loss.Problem
	grads int
}

func (c *countingProblem) Gradient(w, g []float64) float64 {
	c.grads++
	return c.Problem.Gradient(w, g)
}

func TestMaxItersRespected(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	s := makeSoftmax(rng, 100, 8, 5, 1e-6)
	x := make([]float64, s.Dim())
	prob := &countingProblem{Problem: s}
	res := Solve(prob, x, Options{MaxIters: 3, GradTol: 1e-16})
	if res.Iters != 3 {
		t.Fatalf("ran %d iterations, want the cap 3", res.Iters)
	}
	if len(res.Trace) > 3 {
		t.Fatalf("trace has %d entries, cap 3", len(res.Trace))
	}
	// The gradient at the capped iterate would go unread: not evaluated.
	if prob.grads != 3 {
		t.Fatalf("%d gradient evaluations for 3 capped iterations, want 3", prob.grads)
	}
	if !math.IsNaN(res.GradNorm) || res.Converged {
		t.Fatalf("capped run reports GradNorm %v, Converged %v; want NaN, false", res.GradNorm, res.Converged)
	}
	if f := s.Value(x); res.Value != f {
		t.Fatalf("capped run reports Value %v, objective at x is %v", res.Value, f)
	}
}

func TestInexactCGStillConverges(t *testing.T) {
	// Paper claim (§2.1): mild CG tolerance preserves Newton convergence.
	rng := rand.New(rand.NewSource(55))
	s := makeSoftmax(rng, 70, 6, 3, 0.3)
	exact := make([]float64, s.Dim())
	Solve(s, exact, Options{MaxIters: 100, GradTol: 1e-10})
	fStar := s.Value(exact)

	inexact := make([]float64, s.Dim())
	res := Solve(s, inexact, Options{
		MaxIters: 100, GradTol: 1e-8,
		CG: cg.Options{MaxIters: 10, RelTol: 1e-4}, // the paper's budget
	})
	if !res.Converged {
		t.Fatalf("inexact Newton did not converge: %+v", res)
	}
	if gap := s.Value(inexact) - fStar; gap > 1e-6*math.Max(1, math.Abs(fStar)) {
		t.Fatalf("inexact solution gap = %v", gap)
	}
}

func TestDimensionMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	q := &loss.Quadratic{A: randSPD(rng, 3, 1), B: make([]float64, 3)}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Solve(q, make([]float64, 4), Options{})
}

func TestTraceRecordsCGAndAlpha(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	s := makeSoftmax(rng, 40, 4, 3, 0.2)
	x := make([]float64, s.Dim())
	res := Solve(s, x, Options{MaxIters: 5, GradTol: 0})
	if len(res.Trace) == 0 {
		t.Fatal("no trace recorded")
	}
	for _, st := range res.Trace {
		if st.Alpha <= 0 || st.Alpha > 1 {
			t.Fatalf("alpha out of range: %+v", st)
		}
		if st.CGIters < 0 {
			t.Fatalf("negative CG iters: %+v", st)
		}
	}
}
