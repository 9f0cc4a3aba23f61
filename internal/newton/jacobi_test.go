package newton

import (
	"math"
	"math/rand"
	"testing"

	"newtonadmm/internal/cg"
	"newtonadmm/internal/linalg"
	"newtonadmm/internal/loss"
)

// illConditionedSoftmax builds a softmax problem whose features have a
// steep power-law scale, giving the Hessian a wide spectrum.
func illConditionedSoftmax(rng *rand.Rand, n, p, classes int) *loss.Softmax {
	x := linalg.NewMatrix(n, p)
	for i := 0; i < n; i++ {
		row := x.Row(i)
		for j := 0; j < p; j++ {
			row[j] = rng.NormFloat64() * math.Pow(float64(j+1), -1.5)
		}
	}
	y := make([]int, n)
	for i := range y {
		y[i] = rng.Intn(classes)
	}
	s, err := loss.NewSoftmax(testDev, loss.Dense{M: x}, y, classes, 1e-4)
	if err != nil {
		panic(err)
	}
	return s
}

func TestJacobiNewtonConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(220))
	s := illConditionedSoftmax(rng, 80, 12, 3)
	x := make([]float64, s.Dim())
	res := Solve(s, x, Options{
		MaxIters: 60, GradTol: 1e-6, Jacobi: true,
		CG: cg.Options{MaxIters: 10, RelTol: 1e-8},
	})
	if !(res.Converged || res.GradNorm <= 1e-4) {
		t.Fatalf("Jacobi Newton did not converge: %+v", res)
	}
}

func TestJacobiMatchesPlainOptimum(t *testing.T) {
	// Both variants must find (essentially) the same minimizer.
	rng := rand.New(rand.NewSource(221))
	s := illConditionedSoftmax(rng, 60, 10, 3)
	plain := make([]float64, s.Dim())
	Solve(s, plain, Options{MaxIters: 100, GradTol: 1e-8})
	jac := make([]float64, s.Dim())
	Solve(s, jac, Options{MaxIters: 100, GradTol: 1e-8, Jacobi: true})
	fPlain, fJac := s.Value(plain), s.Value(jac)
	if math.Abs(fPlain-fJac) > 1e-5*math.Max(1, math.Abs(fPlain)) {
		t.Fatalf("optima differ: plain %v vs jacobi %v", fPlain, fJac)
	}
}

func TestJacobiProgressWithTinyCGBudget(t *testing.T) {
	// With a very small CG budget on an ill-conditioned problem,
	// preconditioning should reach at least as low an objective in the
	// same number of Newton iterations.
	rng := rand.New(rand.NewSource(222))
	s := illConditionedSoftmax(rng, 100, 16, 4)
	budget := cg.Options{MaxIters: 3, RelTol: 1e-12}

	plain := make([]float64, s.Dim())
	Solve(s, plain, Options{MaxIters: 8, GradTol: 0, CG: budget})
	jac := make([]float64, s.Dim())
	Solve(s, jac, Options{MaxIters: 8, GradTol: 0, CG: budget, Jacobi: true})

	fPlain, fJac := s.Value(plain), s.Value(jac)
	if fJac > fPlain*(1+0.05) {
		t.Fatalf("jacobi underperformed badly: %v vs plain %v", fJac, fPlain)
	}
}

func TestJacobiFallsBackWithoutDiagSupport(t *testing.T) {
	// Quadratic does not implement HessianDiag: Jacobi must silently
	// fall back to plain CG and still solve the problem.
	rng := rand.New(rand.NewSource(223))
	d := 8
	q := &loss.Quadratic{A: randSPD(rng, d, 1), B: randVec(rng, d)}
	x := randVec(rng, d)
	res := Solve(q, x, Options{MaxIters: 10, GradTol: 1e-8, Jacobi: true})
	if !res.Converged {
		t.Fatalf("fallback path failed: %+v", res)
	}
}

func TestAugmentedSupportsJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(224))
	s := illConditionedSoftmax(rng, 40, 8, 3)
	v := make([]float64, s.Dim())
	aug := loss.NewAugmented(s, 2.0, v)
	if !loss.CanDiag(aug) {
		t.Fatal("Augmented(Softmax) should support diagonals")
	}
	// diag(H_aug) = diag(H_base) + rho
	w := randVec(rng, s.Dim())
	base := make([]float64, s.Dim())
	s.HessianDiag(w, base)
	got := make([]float64, s.Dim())
	aug.HessianDiag(w, got)
	for j := range got {
		if math.Abs(got[j]-(base[j]+2.0)) > 1e-12 {
			t.Fatalf("augmented diag[%d]=%v, want %v", j, got[j], base[j]+2)
		}
	}
	// Quadratic-based Augmented must report no support.
	q := &loss.Quadratic{A: randSPD(rng, 4, 1), B: make([]float64, 4)}
	if loss.CanDiag(loss.NewAugmented(q, 1, make([]float64, 4))) {
		t.Fatal("Augmented(Quadratic) should not claim diagonal support")
	}
}

func TestScaledSupportsJacobi(t *testing.T) {
	rng := rand.New(rand.NewSource(225))
	s := illConditionedSoftmax(rng, 40, 8, 3)
	sc := &loss.Scaled{Base: s, Factor: 3}
	if !loss.CanDiag(sc) {
		t.Fatal("Scaled(Softmax) should support diagonals")
	}
	w := randVec(rng, s.Dim())
	base := make([]float64, s.Dim())
	s.HessianDiag(w, base)
	got := make([]float64, s.Dim())
	sc.HessianDiag(w, got)
	for j := range got {
		if math.Abs(got[j]-3*base[j]) > 1e-12 {
			t.Fatalf("scaled diag[%d]=%v, want %v", j, got[j], 3*base[j])
		}
	}
}
