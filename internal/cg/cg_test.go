package cg

import (
	"math"
	"math/rand"
	"testing"

	"newtonadmm/internal/linalg"
	"newtonadmm/internal/loss"
)

type denseOp struct{ a *linalg.Matrix }

func (d denseOp) Apply(v, hv []float64) { linalg.MulNT(d.a, v, 1, hv) }

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

func TestSolveRandomSPDSystems(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	for trial := 0; trial < 25; trial++ {
		d := 2 + rng.Intn(30)
		a := randSPD(rng, d, 1.0)
		xTrue := randVec(rng, d)
		b := make([]float64, d)
		linalg.MulNT(a, xTrue, 1, b)
		x := make([]float64, d)
		res := Solve(denseOp{a}, nil, b, x, Options{MaxIters: 10 * d, RelTol: 1e-10})
		if !res.Converged {
			t.Fatalf("trial %d: CG did not converge: %+v", trial, res)
		}
		if dist := linalg.Dist2(x, xTrue); dist > 1e-6*math.Max(1, linalg.Nrm2(xTrue)) {
			t.Fatalf("trial %d: ||x - x*|| = %v", trial, dist)
		}
	}
}

func TestSolveExactInAtMostDimIters(t *testing.T) {
	// CG in exact arithmetic finishes in dim steps; allow a tiny slack.
	rng := rand.New(rand.NewSource(41))
	d := 12
	a := randSPD(rng, d, 2.0)
	b := randVec(rng, d)
	x := make([]float64, d)
	res := Solve(denseOp{a}, nil, b, x, Options{MaxIters: d + 2, RelTol: 1e-8})
	if !res.Converged {
		t.Fatalf("CG needed more than dim iterations: %+v", res)
	}
}

func TestSolveIdentityOneIteration(t *testing.T) {
	d := 5
	a := linalg.NewMatrix(d, d)
	for i := 0; i < d; i++ {
		a.Set(i, i, 1)
	}
	b := []float64{1, 2, 3, 4, 5}
	x := make([]float64, d)
	res := Solve(denseOp{a}, nil, b, x, Options{MaxIters: 10, RelTol: 1e-12})
	if res.Iters > 1 {
		t.Fatalf("identity system took %d iterations", res.Iters)
	}
	for i := range b {
		if math.Abs(x[i]-b[i]) > 1e-12 {
			t.Fatalf("x=%v, want %v", x, b)
		}
	}
}

func TestSolveZeroRHS(t *testing.T) {
	d := 4
	a := randSPD(rand.New(rand.NewSource(42)), d, 1)
	x := []float64{1, 2, 3, 4}
	res := Solve(denseOp{a}, nil, make([]float64, d), x, Options{})
	if !res.Converged {
		t.Fatal("zero RHS should converge immediately")
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero RHS should produce zero solution")
		}
	}
}

func TestSolveRespectsIterationCap(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	d := 50
	a := randSPD(rng, d, 0.01) // badly conditioned
	b := randVec(rng, d)
	x := make([]float64, d)
	res := Solve(denseOp{a}, nil, b, x, Options{MaxIters: 3, RelTol: 1e-14})
	if res.Iters > 3 {
		t.Fatalf("iteration cap violated: %d", res.Iters)
	}
}

// countingOp counts Hessian-vector products.
type countingOp struct {
	denseOp
	n int
}

func (c *countingOp) Apply(v, hv []float64) { c.n++; c.denseOp.Apply(v, hv) }

// TestSolveFromZeroSpendsOneProductPerIteration: from x = 0 the initial
// residual is b itself, with no product against zero; from any other x
// it costs one product. Plain and Jacobi-preconditioned CG alike.
func TestSolveFromZeroSpendsOneProductPerIteration(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	d := 50
	a := randSPD(rng, d, 0.01)
	b := randVec(rng, d)
	diag := make([]float64, d)
	for j := range diag {
		diag[j] = a.At(j, j)
	}
	for _, c := range []struct {
		name string
		diag []float64
	}{{"plain", nil}, {"jacobi", diag}} {
		op := &countingOp{denseOp: denseOp{a}}
		x := make([]float64, d)
		res := Solve(op, c.diag, b, x, Options{MaxIters: 10, RelTol: 1e-14})
		if res.Iters != 10 || op.n != 10 {
			t.Fatalf("%s: %d iterations spent %d products, want 10 and 10", c.name, res.Iters, op.n)
		}
		op.n = 0
		Solve(op, c.diag, b, x, Options{MaxIters: 10, RelTol: 1e-14})
		if op.n != 11 {
			t.Fatalf("%s: a solve from nonzero x spent %d products, want 11", c.name, op.n)
		}
	}
	// The skipped product's arithmetic gives b back bit for bit.
	hp := make([]float64, d)
	denseOp{a}.Apply(make([]float64, d), hp)
	r := make([]float64, d)
	linalg.Waxpby(1, b, -1, hp, r)
	for i := range r {
		if math.Float64bits(r[i]) != math.Float64bits(b[i]) {
			t.Fatalf("b − H·0 differs from b at %d: %v vs %v", i, r[i], b[i])
		}
	}
}

func TestSolveEarlyStoppingRelativeTolerance(t *testing.T) {
	// With a loose tolerance the solver must stop early with the
	// guaranteed relative residual (paper eq. 3b).
	rng := rand.New(rand.NewSource(44))
	d := 40
	a := randSPD(rng, d, 1)
	b := randVec(rng, d)
	x := make([]float64, d)
	theta := 0.1
	res := Solve(denseOp{a}, nil, b, x, Options{MaxIters: 1000, RelTol: theta})
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	// verify the postcondition directly: ||Hx - b|| <= theta ||b||
	hx := make([]float64, d)
	linalg.MulNT(a, x, 1, hx)
	linalg.Sub(hx, b)
	if linalg.Nrm2(hx) > theta*linalg.Nrm2(b)*(1+1e-12) {
		t.Fatalf("postcondition violated: %v > %v", linalg.Nrm2(hx), theta*linalg.Nrm2(b))
	}
}

func TestNegativeCurvatureDetected(t *testing.T) {
	d := 3
	a := linalg.NewMatrix(d, d)
	a.Set(0, 0, 1)
	a.Set(1, 1, -1) // indefinite
	a.Set(2, 2, 1)
	b := []float64{0, 1, 0}
	x := make([]float64, d)
	res := Solve(denseOp{a}, nil, b, x, Options{MaxIters: 10, RelTol: 1e-10})
	if !res.NegCurve {
		t.Fatalf("negative curvature not flagged: %+v", res)
	}
}

func TestNewtonDirectionIsDescent(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 20; trial++ {
		d := 2 + rng.Intn(20)
		a := randSPD(rng, d, 0.5)
		g := randVec(rng, d)
		p := make([]float64, d)
		NewtonDirection(denseOp{a}, g, p, Options{MaxIters: 5, RelTol: 1e-2})
		if linalg.Dot(p, g) >= 0 {
			t.Fatalf("trial %d: Newton direction is not descent: <p,g>=%v", trial, linalg.Dot(p, g))
		}
	}
}

func TestNewtonDirectionFallbackOnIndefinite(t *testing.T) {
	d := 2
	a := linalg.NewMatrix(d, d)
	a.Set(0, 0, -1)
	a.Set(1, 1, -1)
	g := []float64{1, 1}
	p := make([]float64, d)
	res := NewtonDirection(denseOp{a}, g, p, Options{MaxIters: 5, RelTol: 1e-8})
	if !res.NegCurve {
		t.Fatalf("expected NegCurve: %+v", res)
	}
	// must fall back to -g
	if p[0] != -1 || p[1] != -1 {
		t.Fatalf("fallback direction = %v, want -g", p)
	}
}

func TestSolveWithQuadraticProblemHessian(t *testing.T) {
	// End-to-end against the loss.Quadratic operator.
	rng := rand.New(rand.NewSource(46))
	d := 8
	a := randSPD(rng, d, 1)
	q := &loss.Quadratic{A: a, B: randVec(rng, d)}
	h := q.HessianAt(nil)
	x := make([]float64, d)
	res := Solve(h, nil, q.B, x, Options{MaxIters: 100, RelTol: 1e-10})
	if !res.Converged {
		t.Fatalf("CG on Quadratic Hessian failed: %+v", res)
	}
	// x solves A x = b, so the gradient of the quadratic at x is 0.
	g := make([]float64, d)
	q.Gradient(x, g)
	if linalg.Nrm2(g) > 1e-6 {
		t.Fatalf("gradient at CG solution = %v", linalg.Nrm2(g))
	}
}

// TestAnyNonzeroIsNrm2NonZero: NewtonDirection's fallback test agrees with
// Nrm2(p) == 0, which it replaces, on every kind of element.
func TestAnyNonzeroIsNrm2NonZero(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, c := range []struct {
		name string
		x    []float64
		want bool
	}{
		{"empty", nil, false},
		{"all ±0", []float64{0, math.Copysign(0, -1), 0}, false},
		{"NaN only", []float64{nan, 0, nan}, false},
		{"NaN and finite", []float64{nan, 0, 2.5}, true},
		{"+Inf", []float64{0, inf}, true},
		{"-Inf", []float64{-inf, 0}, true},
		{"subnormal", []float64{0, 5e-324}, true},
		{"negative subnormal", []float64{-5e-324}, true},
	} {
		if got := anyNonzero(c.x); got != c.want {
			t.Errorf("%s: anyNonzero = %v, want %v", c.name, got, c.want)
		}
		if nrm := linalg.Nrm2(c.x); (nrm != 0) != c.want {
			t.Errorf("%s: Nrm2 = %v, but anyNonzero should be %v", c.name, nrm, c.want)
		}
	}
}

func TestSolvePrecondCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(210))
	for trial := 0; trial < 15; trial++ {
		d := 2 + rng.Intn(25)
		a := randSPD(rng, d, 1)
		xTrue := randVec(rng, d)
		b := make([]float64, d)
		linalg.MulNT(a, xTrue, 1, b)
		diag := make([]float64, d)
		for j := 0; j < d; j++ {
			diag[j] = a.At(j, j)
		}
		x := make([]float64, d)
		res := Solve(denseOp{a}, diag, b, x, Options{MaxIters: 20 * d, RelTol: 1e-10})
		if !res.Converged {
			t.Fatalf("trial %d: PCG did not converge: %+v", trial, res)
		}
		if dist := linalg.Dist2(x, xTrue); dist > 1e-6*math.Max(1, linalg.Nrm2(xTrue)) {
			t.Fatalf("trial %d: ||x-x*||=%v", trial, dist)
		}
	}
}

func TestPrecondHelpsOnScaledSystem(t *testing.T) {
	// Badly scaled diagonal system: Jacobi preconditioning should solve
	// it in one iteration while plain CG needs many.
	d := 60
	a := linalg.NewMatrix(d, d)
	diag := make([]float64, d)
	for j := 0; j < d; j++ {
		v := math.Pow(10, float64(j%7)) // condition number 1e6
		a.Set(j, j, v)
		diag[j] = v
	}
	rng := rand.New(rand.NewSource(211))
	b := randVec(rng, d)

	xPlain := make([]float64, d)
	plain := Solve(denseOp{a}, nil, b, xPlain, Options{MaxIters: d, RelTol: 1e-10})
	xPrec := make([]float64, d)
	prec := Solve(denseOp{a}, diag, b, xPrec, Options{MaxIters: d, RelTol: 1e-10})
	if !prec.Converged {
		t.Fatalf("PCG failed: %+v", prec)
	}
	if prec.Iters >= plain.Iters && plain.Converged {
		t.Fatalf("Jacobi did not help: plain %d iters, precond %d", plain.Iters, prec.Iters)
	}
	if prec.Iters > 3 {
		t.Fatalf("diagonal system should converge immediately with Jacobi, took %d", prec.Iters)
	}
}

func TestSolvePrecondZeroRHS(t *testing.T) {
	d := 4
	a := randSPD(rand.New(rand.NewSource(212)), d, 1)
	diag := []float64{1, 1, 1, 1}
	x := []float64{1, 2, 3, 4}
	res := Solve(denseOp{a}, diag, make([]float64, d), x, Options{})
	if !res.Converged {
		t.Fatal("zero RHS must converge")
	}
	for _, v := range x {
		if v != 0 {
			t.Fatal("zero RHS must produce zero solution")
		}
	}
}

func TestSolvePrecondDegenerateDiagonalClamped(t *testing.T) {
	// Zero/negative diagonal entries must not produce NaNs.
	d := 5
	a := randSPD(rand.New(rand.NewSource(213)), d, 1)
	diag := []float64{0, -1, 1e-300, 1, 1}
	b := []float64{1, 1, 1, 1, 1}
	x := make([]float64, d)
	res := Solve(denseOp{a}, diag, b, x, Options{MaxIters: 100, RelTol: 1e-8})
	if !linalg.AllFinite(x) {
		t.Fatal("degenerate diagonal produced non-finite iterate")
	}
	if !res.Converged {
		t.Fatalf("PCG with clamped diagonal failed: %+v", res)
	}
}

func TestNewtonDirectionPrecondIsDescent(t *testing.T) {
	rng := rand.New(rand.NewSource(214))
	for trial := 0; trial < 15; trial++ {
		d := 2 + rng.Intn(15)
		a := randSPD(rng, d, 0.5)
		diag := make([]float64, d)
		for j := 0; j < d; j++ {
			diag[j] = a.At(j, j)
		}
		g := randVec(rng, d)
		p := make([]float64, d)
		NewtonDirectionPrecond(denseOp{a}, diag, g, p, Options{MaxIters: 5, RelTol: 1e-2})
		if linalg.Dot(p, g) >= 0 {
			t.Fatalf("trial %d: not a descent direction", trial)
		}
	}
}

func TestSolvePrecondDimensionPanics(t *testing.T) {
	a := randSPD(rand.New(rand.NewSource(215)), 3, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Solve(denseOp{a}, make([]float64, 2), make([]float64, 3), make([]float64, 3), Options{})
}
