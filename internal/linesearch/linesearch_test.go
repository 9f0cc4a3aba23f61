package linesearch

import (
	"math"
	"testing"
)

func TestBacktrackAcceptsFullNewtonStepOnQuadratic(t *testing.T) {
	// F(x) = x^2 at x=1 with Newton step p=-1: alpha=1 is optimal and
	// satisfies Armijo, so no backtracking should occur.
	f := func(alpha float64) float64 { x := 1 - alpha; return x * x }
	res := Backtrack(f, 1.0, -2.0, Options{})
	if !res.Satisfied || res.Alpha != 1 {
		t.Fatalf("full step rejected: %+v", res)
	}
	if res.Evals != 1 {
		t.Fatalf("expected a single evaluation, got %d", res.Evals)
	}
}

func TestBacktrackHalvesUntilArmijo(t *testing.T) {
	// A steep function where alpha=1 overshoots badly.
	// F(x) = x^4 at x=1, direction p=-10 (aggressive): F(1-10a).
	f0 := 1.0
	slope := -40.0 // <p, g> = -10 * 4
	f := func(alpha float64) float64 { x := 1 - 10*alpha; return x * x * x * x }
	res := Backtrack(f, f0, slope, Options{MaxIters: 30})
	if !res.Satisfied {
		t.Fatalf("no Armijo step found: %+v", res)
	}
	if res.Value > f0+res.Alpha*1e-4*slope {
		t.Fatal("returned step violates Armijo")
	}
	if res.Alpha >= 1 {
		t.Fatalf("expected backtracking, got alpha=%v", res.Alpha)
	}
}

func TestBacktrackRespectsBudget(t *testing.T) {
	calls := 0
	f := func(alpha float64) float64 { calls++; return 1e9 } // never acceptable
	res := Backtrack(f, 0, -1, Options{MaxIters: 7})
	if calls != 7 {
		t.Fatalf("evaluated %d times, budget 7", calls)
	}
	if res.Satisfied {
		t.Fatal("cannot be satisfied")
	}
	// Algorithm 3 breaks and returns the last alpha tried.
	want := math.Pow(0.5, 6)
	if math.Abs(res.Alpha-want) > 1e-15 {
		t.Fatalf("alpha=%v, want %v", res.Alpha, want)
	}
}

func TestEvalCandidatesGrid(t *testing.T) {
	alphas, values := EvalCandidates(func(a float64) float64 { return 2 * a }, Options{MaxIters: 4})
	wantA := []float64{1, 0.5, 0.25, 0.125}
	for i := range wantA {
		if alphas[i] != wantA[i] {
			t.Fatalf("alphas=%v", alphas)
		}
		if values[i] != 2*wantA[i] {
			t.Fatalf("values=%v", values)
		}
	}
}

func TestPickArmijoSelectsLargestSatisfying(t *testing.T) {
	// f0=10, slope=-2e4, beta=1e-4: threshold(a) = 10 - 2a.
	alphas := []float64{1, 0.5, 0.25}
	values := []float64{9.5, 8.9, 9.6} // a=1 needs <=8: no; a=0.5 needs <=9: yes
	a, v := PickArmijo(alphas, values, 10, -2e4)
	if a != 0.5 || v != 8.9 {
		t.Fatalf("picked (%v,%v), want (0.5,8.9)", a, v)
	}
}

// With no candidate meeting Armijo, the lowest value is taken only when it
// is below f0; otherwise the step is 0 and the objective stays at f0.
func TestPickArmijoFallsBackToBestValue(t *testing.T) {
	alphas := []float64{1, 0.5, 0.25}
	cases := []struct {
		f0, wantA, wantV float64
		values           []float64
	}{
		// f0=100, slope=-5e5, beta=1e-4: Armijo needs <= 50, 75, 87.5.
		{100, 0.5, 99, []float64{120, 99, 99.5}},
		{0, 0, 0, []float64{100, 99, 99.5}},
		{99, 0, 99, []float64{100, 99, math.NaN()}},
	}
	for _, c := range cases {
		a, v := PickArmijo(alphas, c.values, c.f0, -5e5)
		if a != c.wantA || v != c.wantV {
			t.Errorf("f0=%v values=%v: picked (%v,%v), want (%v,%v)", c.f0, c.values, a, v, c.wantA, c.wantV)
		}
	}
}

func TestPickArmijoValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched arrays")
		}
	}()
	PickArmijo([]float64{1}, []float64{1, 2}, 0, -1)
}

func TestObjectiveAdapter(t *testing.T) {
	x := []float64{1, 2}
	p := []float64{1, -1}
	scratch := make([]float64, 2)
	value := func(w []float64) float64 { return w[0]*w[0] + w[1]*w[1] }
	f := Objective(value, x, p, scratch)
	// alpha=1: w=(2,1) -> 5
	if got := f(1); got != 5 {
		t.Fatalf("f(1)=%v, want 5", got)
	}
	// alpha=0: w=(1,2) -> 5
	if got := f(0); got != 5 {
		t.Fatalf("f(0)=%v, want 5", got)
	}
	// x must be untouched
	if x[0] != 1 || x[1] != 2 {
		t.Fatal("Objective modified x")
	}
}

func TestObjectiveAdapterValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on bad scratch size")
		}
	}()
	Objective(func(w []float64) float64 { return 0 }, []float64{1}, []float64{1}, []float64{1, 2})
}
