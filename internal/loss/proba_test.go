package loss

import (
	"math"
	"math/rand"
	"testing"

	"newtonadmm/internal/linalg"
)

// TestProbaIntoMatchesDirectSoftmax verifies ProbaInto against an
// independent computation of the stabilized softmax over C classes with
// the implicit zero-score reference class.
func TestProbaIntoMatchesDirectSoftmax(t *testing.T) {
	s := allocProblem(t, false)
	rng := rand.New(rand.NewSource(71))
	w := randW(rng, s.Dim())
	n, p, c := s.X.Rows(), s.X.Cols(), s.C

	out := make([]float64, n*c)
	s.ProbaInto(s.X, w, out)

	x := s.X.(Dense).M
	wm := ToModel(nil, w, c-1)
	for i := 0; i < n; i++ {
		// Direct per-row computation.
		scores := make([]float64, c) // last stays 0 (reference)
		for cc := 0; cc < c-1; cc++ {
			scores[cc] = linalg.Dot(x.Row(i), wm[cc*p:(cc+1)*p])
		}
		var z float64
		for _, v := range scores {
			z += math.Exp(v)
		}
		var sum float64
		for cc := 0; cc < c; cc++ {
			want := math.Exp(scores[cc]) / z
			got := out[i*c+cc]
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("row %d class %d: got %v want %v", i, cc, got, want)
			}
			sum += got
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d probabilities sum to %v", i, sum)
		}
	}
}

// TestProbaIntoAgreesWithPredict checks the argmax of the probabilities
// is exactly the predicted class.
func TestProbaIntoAgreesWithPredict(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		s := allocProblem(t, sparse)
		rng := rand.New(rand.NewSource(72))
		w := randW(rng, s.Dim())
		n, c := s.X.Rows(), s.C

		out := make([]float64, n*c)
		s.ProbaInto(s.X, w, out)
		pred := s.Predict(s.X, w)
		for i := 0; i < n; i++ {
			best, bestP := 0, out[i*c]
			for cc := 1; cc < c; cc++ {
				if out[i*c+cc] > bestP {
					best, bestP = cc, out[i*c+cc]
				}
			}
			if best != pred[i] {
				t.Fatalf("sparse=%v row %d: proba argmax %d, Predict %d", sparse, i, best, pred[i])
			}
		}
	}
}

func TestProbaIntoZeroAllocsSteadyState(t *testing.T) {
	s := allocProblem(t, false)
	w := randW(rand.New(rand.NewSource(73)), s.Dim())
	x := s.X
	out := make([]float64, x.Rows()*s.C)
	if allocs := testing.AllocsPerRun(10, func() { s.ProbaInto(x, w, out) }); allocs != 0 {
		t.Errorf("ProbaInto allocates %v per call in steady state, want 0", allocs)
	}
}

// TestScorerPredictsLikeTrainedProblem verifies the inference-only
// constructor scores identically to a full problem over the same data.
func TestScorerPredictsLikeTrainedProblem(t *testing.T) {
	s := allocProblem(t, false)
	rng := rand.New(rand.NewSource(74))
	w := randW(rng, s.Dim())

	sc, err := NewScorer(testDev, s.C)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Predict(s.X, w)
	got := make([]int, s.X.Rows())
	sc.PredictInto(s.X, w, got)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scorer differs at %d: %d vs %d", i, got[i], want[i])
		}
	}

	wantP := make([]float64, s.X.Rows()*s.C)
	gotP := make([]float64, s.X.Rows()*s.C)
	s.ProbaInto(s.X, w, wantP)
	sc.ProbaInto(s.X, w, gotP)
	for i := range wantP {
		if gotP[i] != wantP[i] {
			t.Fatalf("scorer proba differs at %d: %v vs %v", i, gotP[i], wantP[i])
		}
	}
	if _, err := NewScorer(testDev, 1); err == nil {
		t.Fatal("NewScorer accepted classes=1")
	}
}

// TestProbaRowExtremeScores checks stabilization at large magnitudes.
func TestProbaRowExtremeScores(t *testing.T) {
	dst := make([]float64, 4)
	probaRow([]float64{700, -700, 0}, dst)
	sum := 0.0
	for _, v := range dst {
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 || v > 1 {
			t.Fatalf("unstable probability %v in %v", v, dst)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("sum %v", sum)
	}
	if dst[0] < 0.999999 {
		t.Fatalf("dominant class got %v", dst[0])
	}
}
