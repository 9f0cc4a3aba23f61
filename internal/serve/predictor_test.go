package serve

import (
	"math"
	"math/rand"
	"testing"

	"newtonadmm/internal/device"
	"newtonadmm/internal/linalg"
	"newtonadmm/internal/loss"
	"newtonadmm/internal/sparse"
	"newtonadmm/internal/wire"
)

var testDev = device.New("serve-test", 2)

// makePredictor builds a predictor with random weights on the shared
// test device.
func makePredictor(t testing.TB, classes, features int, seed int64) *Predictor {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, (classes-1)*features)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	p, err := NewPredictorOn(testDev, w, classes, features)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// randRows generates dense rows; density < 1 zeroes entries (so the CSR
// twins have real sparsity patterns).
func randRows(rng *rand.Rand, n, features int, density float64) [][]float64 {
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, features)
		for j := range rows[i] {
			if density >= 1 || rng.Float64() < density {
				rows[i][j] = rng.NormFloat64()
			}
		}
	}
	return rows
}

// toCSRRows converts dense rows to (indices, values) form.
func toCSRRows(rows [][]float64) ([][]int, [][]float64) {
	idx := make([][]int, len(rows))
	val := make([][]float64, len(rows))
	for i, r := range rows {
		for j, v := range r {
			if v != 0 {
				idx[i] = append(idx[i], j)
				val[i] = append(val[i], v)
			}
		}
	}
	return idx, val
}

// referenceClass scores one row serially: argmax over explicit class
// scores with the zero-score reference class winning ties.
func referenceClass(w []float64, classes int, row []float64) int {
	p := len(row)
	best, bestScore := classes-1, 0.0
	for c := 0; c < classes-1; c++ {
		s := linalg.Dot(row, w[c*p:(c+1)*p])
		if s > bestScore {
			best, bestScore = c, s
		}
	}
	return best
}

func TestPredictorValidation(t *testing.T) {
	if _, err := NewPredictorOn(testDev, make([]float64, 10), 1, 10); err == nil {
		t.Fatal("classes=1 accepted")
	}
	if _, err := NewPredictorOn(testDev, make([]float64, 10), 3, 0); err == nil {
		t.Fatal("features=0 accepted")
	}
	if _, err := NewPredictorOn(testDev, make([]float64, 7), 3, 4); err == nil {
		t.Fatal("mis-sized weights accepted")
	}

	p := makePredictor(t, 3, 5, 1)
	out := make([]int, 4)
	if err := p.PredictDense([][]float64{{1, 2}}, out); err == nil {
		t.Fatal("short row accepted")
	}
	if err := p.PredictDense([][]float64{{1, 2, 3, 4, 5}}, out[:0]); err == nil {
		t.Fatal("short output accepted")
	}
	if err := p.PredictCSR([][]int{{0, 0}}, [][]float64{{1, 1}}, out); err == nil {
		t.Fatal("duplicate indices accepted")
	}
	if err := p.PredictCSR([][]int{{3, 1}}, [][]float64{{1, 1}}, out); err == nil {
		t.Fatal("descending indices accepted")
	}
	if err := p.PredictCSR([][]int{{5}}, [][]float64{{1}}, out); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := p.PredictCSR([][]int{{1}}, [][]float64{{1, 2}}, out); err == nil {
		t.Fatal("index/value length mismatch accepted")
	}
	if err := p.PredictCSR([][]int{{1}}, [][]float64{}, out); err == nil {
		t.Fatal("row count mismatch accepted")
	}
	if err := p.ProbaDense([][]float64{{1, 2, 3, 4, 5}}, make([]float64, 2)); err == nil {
		t.Fatal("short proba buffer accepted")
	}
}

func TestPredictDenseMatchesReference(t *testing.T) {
	const classes, features = 6, 17
	p := makePredictor(t, classes, features, 2)
	rng := rand.New(rand.NewSource(3))
	rows := randRows(rng, 41, features, 1)
	out := make([]int, len(rows))
	if err := p.PredictDense(rows, out); err != nil {
		t.Fatal(err)
	}
	for i, r := range rows {
		if want := referenceClass(loss.ToModel(nil, p.weights, classes-1), classes, r); out[i] != want {
			t.Fatalf("row %d: got class %d, want %d", i, out[i], want)
		}
	}
}

// TestPredictorScoresMatchLossOnSolverWeights pins the model boundary: a
// predictor built from class-major weights scores bitwise as the loss
// kernels do on the same weights in the solver's layout, dense and CSR,
// at the serving shards' widths and feature count.
func TestPredictorScoresMatchLossOnSolverWeights(t *testing.T) {
	const features = 784
	rng := rand.New(rand.NewSource(9))
	for _, m := range []int{4, 5} {
		w := make([]float64, m*features) // solver layout
		for i := range w {
			w[i] = rng.NormFloat64() / 16
		}
		p, err := NewPredictorOn(testDev, loss.ToModel(nil, w, m), m+1, features)
		if err != nil {
			t.Fatal(err)
		}
		scorer, err := loss.NewScorer(testDev, m+1)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 3, 4, 32} {
			rows := randRows(rng, n, features, 0.3)
			x := linalg.NewMatrix(n, features)
			for i, r := range rows {
				copy(x.Row(i), r)
			}
			idx, val := toCSRRows(rows)
			for _, kind := range []struct {
				name string
				x    loss.Features
				add  func(b *wire.Batch, i int)
			}{
				{"dense", loss.Dense{M: x}, func(b *wire.Batch, i int) { b.AddDense(rows[i]) }},
				{"csr", loss.Sparse{M: sparse.FromDense(x)}, func(b *wire.Batch, i int) { b.AddCSR(idx[i], val[i]) }},
			} {
				var b wire.Batch
				for i := range rows {
					kind.add(&b, i)
				}
				got := make([]float64, n*m)
				if err := p.ScoresBatch(&b, m, got); err != nil {
					t.Fatal(err)
				}
				want := make([]float64, n*m)
				scorer.ScoresInto(kind.x, w, want)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("m=%d %s %d rows: score %d = %v, loss %v", m, kind.name, n, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestPredictCSRMatchesDense(t *testing.T) {
	const classes, features = 5, 23
	p := makePredictor(t, classes, features, 4)
	rng := rand.New(rand.NewSource(5))
	rows := randRows(rng, 37, features, 0.3)
	idx, val := toCSRRows(rows)

	dOut := make([]int, len(rows))
	sOut := make([]int, len(rows))
	if err := p.PredictDense(rows, dOut); err != nil {
		t.Fatal(err)
	}
	if err := p.PredictCSR(idx, val, sOut); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		if dOut[i] != sOut[i] {
			t.Fatalf("row %d: dense %d vs CSR %d", i, dOut[i], sOut[i])
		}
	}
}

func TestProbaMatchesPredictAndSumsToOne(t *testing.T) {
	const classes, features = 4, 11
	p := makePredictor(t, classes, features, 6)
	rng := rand.New(rand.NewSource(7))
	rows := randRows(rng, 19, features, 0.5)
	idx, val := toCSRRows(rows)

	classesOut := make([]int, len(rows))
	if err := p.PredictDense(rows, classesOut); err != nil {
		t.Fatal(err)
	}
	dProbs := make([]float64, len(rows)*classes)
	if err := p.ProbaDense(rows, dProbs); err != nil {
		t.Fatal(err)
	}
	sProbs := make([]float64, len(rows)*classes)
	if err := p.ProbaCSR(idx, val, sProbs); err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		row := dProbs[i*classes : (i+1)*classes]
		var sum float64
		for _, v := range row {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("row %d probabilities sum to %v", i, sum)
		}
		if got := ArgmaxProba(row); got != classesOut[i] {
			t.Fatalf("row %d: proba argmax %d, predict %d", i, got, classesOut[i])
		}
		for c := 0; c < classes; c++ {
			if dProbs[i*classes+c] != sProbs[i*classes+c] {
				t.Fatalf("row %d class %d: dense %v vs CSR %v", i, c, dProbs[i*classes+c], sProbs[i*classes+c])
			}
		}
	}
}

func TestPredictorEmptyBatch(t *testing.T) {
	p := makePredictor(t, 3, 5, 8)
	if err := p.PredictDense(nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.PredictCSR(nil, nil, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.ProbaDense(nil, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPredictorZeroAllocsSteadyState pins the acceptance criterion: once
// staging is warm, the predictor hot path allocates nothing per batch.
func TestPredictorZeroAllocsSteadyState(t *testing.T) {
	const classes, features = 6, 32
	p := makePredictor(t, classes, features, 9)
	rng := rand.New(rand.NewSource(10))
	rows := randRows(rng, 16, features, 0.4)
	idx, val := toCSRRows(rows)
	out := make([]int, len(rows))
	probs := make([]float64, len(rows)*classes)

	if allocs := testing.AllocsPerRun(20, func() {
		if err := p.PredictDense(rows, out); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("PredictDense allocates %v per batch in steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := p.PredictCSR(idx, val, out); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("PredictCSR allocates %v per batch in steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := p.ProbaDense(rows, probs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ProbaDense allocates %v per batch in steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := p.ProbaCSR(idx, val, probs); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ProbaCSR allocates %v per batch in steady state, want 0", allocs)
	}
	var mixed wire.Batch
	for i, row := range rows {
		if i%2 == 1 {
			mixed.AddCSR(idx[i], val[i])
		} else {
			mixed.AddDense(row)
		}
	}
	scores := make([]float64, len(rows)*(classes-1))
	if allocs := testing.AllocsPerRun(20, func() {
		if err := p.ScoresBatch(&mixed, classes-1, scores); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("ScoresBatch on a mixed batch allocates %v per batch in steady state, want 0", allocs)
	}
}

func TestArgmaxProbaTieBreaking(t *testing.T) {
	// Reference class (last) wins exact ties; earliest explicit class
	// wins ties among explicit classes — matching loss.PredictInto.
	if got := ArgmaxProba([]float64{0.25, 0.25, 0.25, 0.25}); got != 3 {
		t.Fatalf("all-tied: got %d, want reference class 3", got)
	}
	if got := ArgmaxProba([]float64{0.3, 0.3, 0.2, 0.2}); got != 0 {
		t.Fatalf("explicit tie: got %d, want 0", got)
	}
	if got := ArgmaxProba([]float64{0.1, 0.5, 0.2, 0.2}); got != 1 {
		t.Fatalf("got %d, want 1", got)
	}
}
