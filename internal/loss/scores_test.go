package loss

import (
	"math/rand"
	"testing"
)

// TestScoresMergeMatchesPredictInto pins the class-sharding identity at
// the loss layer: scoring each contiguous slice of the class-major weight
// rows separately (converted to the kernels' layout, as a shard's
// predictor does) and concatenating the partial score columns, then applying
// the merge kernels, is bitwise identical to single-launch PredictInto /
// ProbaInto over the full weight matrix — for dense and CSR features and
// for shard counts that exercise both the 4-wide and remainder kernel
// paths.
func TestScoresMergeMatchesPredictInto(t *testing.T) {
	for _, sparseX := range []bool{false, true} {
		s := allocProblem(t, sparseX)
		rng := rand.New(rand.NewSource(81))
		w := randW(rng, s.Dim())
		n, p, c := s.X.Rows(), s.X.Cols(), s.C
		m := c - 1

		wantPred := make([]int, n)
		s.PredictInto(s.X, w, wantPred)
		wantProba := make([]float64, n*c)
		s.ProbaInto(s.X, w, wantProba)
		wm := ToModel(nil, w, m)

		for shards := 1; shards <= 4; shards++ {
			// Contiguous balanced split of the m explicit class rows.
			merged := make([]float64, n*m)
			lo := 0
			for r := 0; r < shards; r++ {
				width := m / shards
				if r < m%shards {
					width++
				}
				hi := lo + width
				if width == 0 {
					continue
				}
				shard, err := NewScorer(testDev, width+1)
				if err != nil {
					t.Fatal(err)
				}
				part := make([]float64, n*width)
				shard.ScoresInto(s.X, FromModel(nil, wm[lo*p:hi*p], width), part)
				for i := 0; i < n; i++ {
					copy(merged[i*m+lo:i*m+hi], part[i*width:(i+1)*width])
				}
				lo = hi
			}

			gotPred := make([]int, n)
			PredictFromScores(merged, n, c, gotPred)
			for i := range wantPred {
				if gotPred[i] != wantPred[i] {
					t.Fatalf("sparse=%v shards=%d row %d: merged class %d, PredictInto %d",
						sparseX, shards, i, gotPred[i], wantPred[i])
				}
			}
			gotProba := make([]float64, n*c)
			ProbaFromScores(merged, n, c, gotProba)
			for i := range wantProba {
				if gotProba[i] != wantProba[i] { // bitwise: == on float64
					t.Fatalf("sparse=%v shards=%d proba[%d]: merged %v, ProbaInto %v",
						sparseX, shards, i, gotProba[i], wantProba[i])
				}
			}
		}
	}
}

// TestPredictFromScoresTieBreaking checks the reference-class and
// lowest-index tie rules match PredictInto's documented behavior.
func TestPredictFromScoresTieBreaking(t *testing.T) {
	// Row 0: all explicit scores negative -> reference class (3).
	// Row 1: explicit class 1 strictly positive -> 1.
	// Row 2: two equal positive scores -> lowest index (0).
	// Row 3: explicit score exactly 0 does not beat the reference.
	scores := []float64{
		-1, -2, -3,
		-1, 2, 2,
		5, 5, 1,
		0, -1, 0,
	}
	out := make([]int, 4)
	PredictFromScores(scores, 4, 4, out)
	want := []int{3, 1, 0, 3}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("row %d: got %d want %d (out %v)", i, out[i], want[i], out)
		}
	}
}

func TestScoresIntoZeroAllocsSteadyState(t *testing.T) {
	s := allocProblem(t, false)
	w := randW(rand.New(rand.NewSource(82)), s.Dim())
	x := s.X
	out := make([]float64, x.Rows()*(s.C-1))
	if allocs := testing.AllocsPerRun(10, func() { s.ScoresInto(x, w, out) }); allocs != 0 {
		t.Errorf("ScoresInto allocates %v per call in steady state, want 0", allocs)
	}
}
