package loss

import (
	"math/rand"
	"slices"
	"testing"
)

func TestLayoutRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	for _, m := range []int{1, 2, 5, 9} {
		p := 7
		x := randW(rng, m*p)
		w := ToModel(nil, x, m)
		for j := 0; j < p; j++ {
			for c := 0; c < m; c++ {
				if w[c*p+j] != x[j*m+c] {
					t.Fatalf("m=%d: model (%d,%d) = %v, solver %v", m, c, j, w[c*p+j], x[j*m+c])
				}
			}
		}
		if back := FromModel(make([]float64, len(w)), w, m); !slices.Equal(back, x) {
			t.Fatalf("m=%d: FromModel(ToModel(x)) != x", m)
		}
	}
}

// TestAccuracyReadsModelLayout: Accuracy on class-major weights counts
// what PredictInto predicts on the same weights in the solver's layout.
func TestAccuracyReadsModelLayout(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		s := allocProblem(t, sparse)
		w := randW(rand.New(rand.NewSource(92)), s.Dim())
		pred := make([]int, s.N())
		s.PredictInto(s.X, w, pred)
		correct := 0
		for i, c := range pred {
			if c == s.Y[i] {
				correct++
			}
		}
		if got, want := s.Accuracy(s.X, s.Y, ToModel(nil, w, s.C-1)), float64(correct)/float64(s.N()); got != want {
			t.Fatalf("sparse=%v: Accuracy = %v, PredictInto counts %v", sparse, got, want)
		}
	}
}
