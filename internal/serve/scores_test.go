package serve

import (
	"math/rand"
	"testing"
	"time"

	"newtonadmm/internal/loss"
)

// TestScoresMatchPredict pins the partial-logit surface to the predict
// path: applying the merge kernels to ScoresDense/ScoresCSR output
// reproduces PredictDense/PredictCSR and ProbaDense bitwise.
func TestScoresMatchPredict(t *testing.T) {
	const classes, features = 5, 17
	p := makePredictor(t, classes, features, 50)
	rng := rand.New(rand.NewSource(51))
	rows := randRows(rng, 9, features, 0.5)
	idx, val := toCSRRows(rows)
	m := classes - 1

	scores := make([]float64, len(rows)*m)
	if err := p.ScoresDense(rows, scores); err != nil {
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

	csrScores := make([]float64, len(rows)*m)
	if err := p.ScoresCSR(idx, val, csrScores); err != nil {
		t.Fatal(err)
	}
	for i := range scores {
		if csrScores[i] != scores[i] {
			t.Fatalf("scores[%d]: CSR %v, dense %v", i, csrScores[i], scores[i])
		}
	}

	if err := p.ScoresDense(rows, make([]float64, 1)); err == nil {
		t.Fatal("short score buffer accepted")
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
