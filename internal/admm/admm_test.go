package admm

import (
	"math"
	"math/rand"
	"testing"

	"newtonadmm/internal/linalg"
)

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestUpdateZClosedForm(t *testing.T) {
	// Verify eq. (7) against a brute-force minimization of
	// g(z) + sum_i rho_i/2 ||z - x_i + y_i/rho_i||^2 via its gradient.
	rng := rand.New(rand.NewSource(70))
	dim, ranks := 6, 3
	xs := make([][]float64, ranks)
	ys := make([][]float64, ranks)
	rhos := make([]float64, ranks)
	for i := range xs {
		xs[i] = randVec(rng, dim)
		ys[i] = randVec(rng, dim)
		rhos[i] = 0.5 + rng.Float64()
	}
	lambda := 0.3
	z := make([]float64, dim)
	UpdateZ(z, xs, ys, rhos, lambda)

	// Gradient of the z-subproblem at the solution must vanish:
	// lambda z + sum_i rho_i (z - x_i + y_i/rho_i) = 0.
	for j := 0; j < dim; j++ {
		grad := lambda * z[j]
		for i := range xs {
			grad += rhos[i]*(z[j]-xs[i][j]) + ys[i][j]
		}
		if math.Abs(grad) > 1e-10 {
			t.Fatalf("z-update gradient[%d] = %v", j, grad)
		}
	}
}

func TestUpdateZSingleRankZeroLambda(t *testing.T) {
	// One rank, lambda=0: z = x - y/rho.
	x := []float64{1, 2}
	y := []float64{0.5, -0.5}
	z := make([]float64, 2)
	UpdateZ(z, [][]float64{x}, [][]float64{y}, []float64{2}, 0)
	want := []float64{1 - 0.25, 2 + 0.25}
	for j := range want {
		if math.Abs(z[j]-want[j]) > 1e-12 {
			t.Fatalf("z=%v, want %v", z, want)
		}
	}
}

func TestUpdateZValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on rank count mismatch")
		}
	}()
	UpdateZ(make([]float64, 2), [][]float64{{1, 2}}, nil, []float64{1}, 0.1)
}

func TestUpdateYFixedPoint(t *testing.T) {
	// At consensus (x == z), y must not move.
	y := []float64{1, -2}
	z := []float64{3, 4}
	UpdateY(y, z, z, 5)
	if y[0] != 1 || y[1] != -2 {
		t.Fatalf("y moved at consensus: %v", y)
	}
}

func TestUpdateYDirection(t *testing.T) {
	y := []float64{0}
	UpdateY(y, []float64{2}, []float64{1}, 3) // y += 3*(2-1)
	if y[0] != 3 {
		t.Fatalf("y=%v, want 3", y[0])
	}
}

func TestAnchor(t *testing.T) {
	v := make([]float64, 2)
	Anchor(v, []float64{1, 2}, []float64{4, -4}, 2)
	if v[0] != 3 || v[1] != 0 {
		t.Fatalf("anchor=%v, want [3 0]", v)
	}
}

func TestAnchorRequiresPositiveRho(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rho<=0")
		}
	}()
	Anchor(make([]float64, 1), []float64{1}, []float64{1}, 0)
}

func TestResiduals(t *testing.T) {
	x := []float64{1, 0}
	z := []float64{0, 0}
	if got := PrimalResidual(x, z); got != 1 {
		t.Fatalf("primal=%v, want 1", got)
	}
	zPrev := []float64{0, 2}
	if got := DualResidual(z, zPrev, 3); got != 6 {
		t.Fatalf("dual=%v, want 6", got)
	}
	primal, dual := GlobalResiduals([][]float64{{1, 0}, {0, 1}}, z, zPrev, []float64{3, 4})
	if math.Abs(primal-math.Sqrt(2)) > 1e-12 {
		t.Fatalf("global primal=%v", primal)
	}
	if math.Abs(dual-5*2) > 1e-12 { // sqrt(9+16)*||z - zPrev||
		t.Fatalf("global dual=%v", dual)
	}
}

func TestFixedPenalty(t *testing.T) {
	p := &FixedPenalty{Value: 2.5}
	if p.Rho() != 2.5 || p.Update(3, IterState{}) != 2.5 || p.Name() != "fixed" {
		t.Fatal("FixedPenalty changed")
	}
}

func TestResidualBalancingDirections(t *testing.T) {
	rb := NewResidualBalancing(1)
	// Primal dominates: rho doubles.
	if got := rb.Update(1, IterState{Primal: 100, Dual: 1}); got != 2 {
		t.Fatalf("rho=%v, want 2", got)
	}
	// Dual dominates: rho halves.
	if got := rb.Update(2, IterState{Primal: 1, Dual: 100}); got != 1 {
		t.Fatalf("rho=%v, want 1", got)
	}
	// Balanced: unchanged.
	if got := rb.Update(3, IterState{Primal: 1, Dual: 1}); got != 1 {
		t.Fatalf("rho=%v, want 1", got)
	}
}

func TestSpectralStepHybridRule(t *testing.T) {
	// 2*MG > SD: pick MG.
	if got := spectralStep(1.0, 0.9); got != 0.9 {
		t.Fatalf("hybrid=%v, want 0.9", got)
	}
	// Otherwise SD - MG/2.
	if got := spectralStep(1.0, 0.2); got != 0.9 {
		t.Fatalf("hybrid=%v, want 0.9", got)
	}
}

func TestSpectralPenaltyNoUpdateWithoutHistory(t *testing.T) {
	sp := NewSpectralPenalty(1.5)
	st := IterState{
		X1: []float64{1}, Z0: []float64{0}, Z1: []float64{0.5},
		Y0: []float64{0}, Y1: []float64{0.1},
	}
	if got := sp.Update(1, st); got != 1.5 {
		t.Fatalf("first observation changed rho to %v", got)
	}
}

func TestSpectralPenaltyRecoversQuadraticCurvature(t *testing.T) {
	// For f(x) = a/2 x^2 the dual relationship gives lamHat proportional
	// to a * x; feeding consistent iterates should drive rho toward
	// sqrt(alpha*beta) with alpha ~= a. Build synthetic iterates where the
	// local solver is exact: lamHat = a * x1 (stationarity of
	// f(x) + rho/2||x - z - y/rho||^2 gives a*x = -(y + rho(z - x)) = lamHat
	// with our sign convention... here we directly synthesize the pairs.
	a, b := 4.0, 1.0 // local curvature a, regularizer curvature b
	sp := NewSpectralPenalty(1)
	sp.Tf = 1 // adapt every iteration
	dim := 3
	rng := rand.New(rand.NewSource(71))
	x := randVec(rng, dim)
	z := randVec(rng, dim)
	for k := 1; k <= 12; k++ {
		x1 := make([]float64, dim)
		z1 := make([]float64, dim)
		y0 := make([]float64, dim)
		y1 := make([]float64, dim)
		for j := 0; j < dim; j++ {
			x1[j] = x[j] * math.Pow(0.8, float64(k))
			z1[j] = z[j] * math.Pow(0.8, float64(k))
			// Choose y so that lamHat = a*x1 (= grad f at x1 for
			// f = a/2 x^2) and lam = b*z1 (= grad g at z1) exactly:
			// lamHat = y0 + rho(z0 - x1) => y0 = a*x1 - rho*(z0 - x1).
			z0j := z[j] * math.Pow(0.8, float64(k-1))
			y0[j] = a*x1[j] - sp.Rho()*(z0j-x1[j])
			y1[j] = -b * z1[j]
		}
		z0 := make([]float64, dim)
		for j := range z0 {
			z0[j] = z[j] * math.Pow(0.8, float64(k-1))
		}
		sp.Update(k, IterState{X1: x1, Z0: z0, Z1: z1, Y0: y0, Y1: y1})
	}
	want := math.Sqrt(a * b)
	if math.Abs(sp.Rho()-want) > 0.2*want {
		t.Fatalf("spectral rho=%v, want ~%v", sp.Rho(), want)
	}
}

func TestSpectralPenaltySafeguardBounds(t *testing.T) {
	sp := NewSpectralPenalty(1)
	sp.Tf = 1
	sp.Ccg = 1 // tight guard: relative change at k is 1 + 1/k^2
	rng := rand.New(rand.NewSource(72))
	st := func() IterState {
		return IterState{
			X1: randVec(rng, 4), Z0: randVec(rng, 4), Z1: randVec(rng, 4),
			Y0: randVec(rng, 4), Y1: randVec(rng, 4),
		}
	}
	sp.Update(1, st())
	prev := sp.Rho()
	for k := 2; k <= 30; k++ {
		got := sp.Update(k, st())
		guard := 1 + 1/float64(k*k)
		if got > prev*guard*(1+1e-12) || got < prev/guard*(1-1e-12) {
			t.Fatalf("k=%d: rho %v escaped guard [%v, %v]", k, got, prev/guard, prev*guard)
		}
		if got < sp.MinRho || got > sp.MaxRho {
			t.Fatalf("rho %v escaped absolute bounds", got)
		}
		prev = got
	}
}

func TestSpectralPenaltyRespectsPeriod(t *testing.T) {
	sp := NewSpectralPenalty(1)
	sp.Tf = 2
	rng := rand.New(rand.NewSource(73))
	mk := func() IterState {
		return IterState{
			X1: randVec(rng, 3), Z0: randVec(rng, 3), Z1: randVec(rng, 3),
			Y0: randVec(rng, 3), Y1: randVec(rng, 3),
		}
	}
	sp.Update(1, mk()) // snapshot only
	before := sp.Rho()
	sp.Update(3, mk()) // odd iteration: no adaptation
	if sp.Rho() != before {
		t.Fatal("penalty adapted on an off-period iteration")
	}
}

func TestSpectralPenaltyUpdateAllocationFree(t *testing.T) {
	sp := NewSpectralPenalty(1)
	rng := rand.New(rand.NewSource(74))
	st := IterState{
		X1: randVec(rng, 64), Z0: randVec(rng, 64), Z1: randVec(rng, 64),
		Y0: randVec(rng, 64), Y1: randVec(rng, 64),
	}
	sp.Update(1, st) // takes the snapshot
	for branch, k := range map[string]int{"off-period": 3, "adapting": 2} {
		if allocs := testing.AllocsPerRun(10, func() { sp.Update(k, st) }); allocs != 0 {
			t.Fatalf("%s update allocates %v per call, want 0", branch, allocs)
		}
	}
}

func TestNewPolicy(t *testing.T) {
	if NewPolicy("fixed", 1).Name() != "fixed" {
		t.Fatal("fixed policy")
	}
	if NewPolicy("residual-balancing", 1).Name() != "residual-balancing" {
		t.Fatal("rb policy")
	}
	if NewPolicy("spectral", 1).Name() != "spectral" {
		t.Fatal("spectral policy")
	}
	if NewPolicy("bogus", 1).Name() != "spectral" {
		t.Fatal("default policy should be spectral")
	}
}

func TestGlobalResidualsConsensusIsZero(t *testing.T) {
	z := []float64{1, 2, 3}
	xs := [][]float64{linalg.Clone(z), linalg.Clone(z)}
	primal, dual := GlobalResiduals(xs, z, z, []float64{1, 1})
	if primal != 0 || dual != 0 {
		t.Fatalf("residuals at consensus: %v, %v", primal, dual)
	}
}
