package serve

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"newtonadmm/internal/loss"
	"newtonadmm/internal/wire"
)

// TestScoresMatchPredict pins the partial-logit surface to the predict
// path: applying the merge kernels to ScoresBatch output reproduces
// PredictDense and ProbaDense bitwise, whether the rows arrive dense,
// sparse, or mixed.
func TestScoresMatchPredict(t *testing.T) {
	const classes, features = 5, 17
	p := makePredictor(t, classes, features, 50)
	rng := rand.New(rand.NewSource(51))
	rows := randRows(rng, 9, features, 0.5)
	idx, val := toCSRRows(rows)
	m := classes - 1

	var dense, sparse, mixed wire.Batch
	for i, row := range rows {
		dense.AddDense(row)
		sparse.AddCSR(idx[i], val[i])
		if i%3 == 1 {
			mixed.AddCSR(idx[i], val[i])
		} else {
			mixed.AddDense(row)
		}
	}
	scores := make([]float64, len(rows)*m)
	if err := p.ScoresBatch(&dense, m, scores); err != nil {
		t.Fatal(err)
	}
	gotPred := make([]int, len(rows))
	loss.PredictFromScores(scores, len(rows), classes, gotPred)
	wantPred := make([]int, len(rows))
	if err := p.PredictDense(rows, wantPred); err != nil {
		t.Fatal(err)
	}
	for i := range wantPred {
		if gotPred[i] != wantPred[i] {
			t.Fatalf("row %d: scores argmax %d, PredictDense %d", i, gotPred[i], wantPred[i])
		}
	}

	gotProba := make([]float64, len(rows)*classes)
	loss.ProbaFromScores(scores, len(rows), classes, gotProba)
	wantProba := make([]float64, len(rows)*classes)
	if err := p.ProbaDense(rows, wantProba); err != nil {
		t.Fatal(err)
	}
	for i := range wantProba {
		if gotProba[i] != wantProba[i] {
			t.Fatalf("proba[%d]: from scores %v, ProbaDense %v", i, gotProba[i], wantProba[i])
		}
	}

	for name, b := range map[string]*wire.Batch{"sparse": &sparse, "mixed": &mixed} {
		got := make([]float64, len(rows)*m)
		if err := p.ScoresBatch(b, 0, got); err != nil {
			t.Fatal(err)
		}
		for i := range scores {
			if got[i] != scores[i] {
				t.Fatalf("%s scores[%d]: %v, dense %v", name, i, got[i], scores[i])
			}
		}
	}

	if err := p.ScoresBatch(&dense, m, make([]float64, 1)); err == nil {
		t.Fatal("short score buffer accepted")
	}
	untouched := make([]float64, len(rows)*m)
	if err := p.ScoresBatch(&mixed, m+1, untouched); !errors.Is(err, ErrModelShapeChanged) {
		t.Fatalf("planned width %d against %d: err %v, want ErrModelShapeChanged", m+1, m, err)
	}
	for i, v := range untouched {
		if v != 0 {
			t.Fatalf("mismatched width wrote tile entry %d = %v", i, v)
		}
	}
}

// TestBatcherDrain checks the drain hook: after Drain returns, every
// previously accepted request has been answered.
func TestBatcherDrain(t *testing.T) {
	p := makePredictor(t, 3, 8, 53)
	reg := NewRegistry()
	reg.Swap(p, ModelMeta{})
	bat := NewBatcher(reg, BatcherConfig{MaxBatch: 4, MaxLinger: 200 * time.Microsecond, QueueDepth: 64})
	defer bat.Close()

	row := make([]float64, 8)
	tickets := make([]Ticket, 0, 32)
	for i := 0; i < 32; i++ {
		tk, err := bat.SubmitDense(row, nil)
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	bat.Drain()
	if got := bat.InFlight(); got != 0 {
		t.Fatalf("InFlight %d after Drain", got)
	}
	st := bat.Stats()
	if st.Completed != st.Submitted {
		t.Fatalf("completed %d != submitted %d after Drain", st.Completed, st.Submitted)
	}
	for _, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}
