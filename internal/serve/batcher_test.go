package serve

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"newtonadmm/internal/control"
	"newtonadmm/internal/obs"
	"newtonadmm/internal/wire"
)

// fakeScorer answers deterministically from the first feature value and
// records batch sizes; an optional gate blocks each scoring call until
// released, and entered signals that a batch reached the scorer.
type fakeScorer struct {
	classes, features int
	gate              chan struct{} // nil: never blocks
	entered           chan struct{} // nil: no signal

	mu         sync.Mutex
	batchSizes []int
}

func (f *fakeScorer) Classes() int  { return f.classes }
func (f *fakeScorer) Features() int { return f.features }

func (f *fakeScorer) enter(n int) {
	if f.entered != nil {
		f.entered <- struct{}{}
	}
	if f.gate != nil {
		<-f.gate
	}
	f.mu.Lock()
	f.batchSizes = append(f.batchSizes, n)
	f.mu.Unlock()
}

func (f *fakeScorer) classOf(v float64) int {
	c := int(math.Abs(v)) % f.classes
	return c
}

func (f *fakeScorer) PredictDense(rows [][]float64, out []int) error {
	f.enter(len(rows))
	for i, r := range rows {
		out[i] = f.classOf(r[0])
	}
	return nil
}

func (f *fakeScorer) PredictCSR(idx [][]int, val [][]float64, out []int) error {
	f.enter(len(idx))
	for i := range val {
		out[i] = f.classOf(val[i][0])
	}
	return nil
}

func (f *fakeScorer) ProbaDense(rows [][]float64, out []float64) error {
	f.enter(len(rows))
	for i, r := range rows {
		for c := 0; c < f.classes; c++ {
			out[i*f.classes+c] = 0
		}
		out[i*f.classes+f.classOf(r[0])] = 1
	}
	return nil
}

func (f *fakeScorer) ProbaCSR(idx [][]int, val [][]float64, out []float64) error {
	f.enter(len(idx))
	for i := range val {
		for c := 0; c < f.classes; c++ {
			out[i*f.classes+c] = 0
		}
		out[i*f.classes+f.classOf(val[i][0])] = 1
	}
	return nil
}

func (f *fakeScorer) sizes() []int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]int(nil), f.batchSizes...)
}

type fakeSource struct {
	s   Scorer
	err error
}

func (f fakeSource) Acquire() (Scorer, func(), error) {
	if f.err != nil {
		return nil, nil, f.err
	}
	return f.s, func() {}, nil
}

// TestBatcherConcurrentCorrectness is the headline -race test: many
// goroutines hammer one batcher over a real predictor with mixed dense,
// sparse, and proba traffic, and every request must get exactly the
// class the predictor computes for its row directly.
func TestBatcherConcurrentCorrectness(t *testing.T) {
	const classes, features = 5, 24
	const workers, perWorker = 8, 60
	p := makePredictor(t, classes, features, 20)
	rng := rand.New(rand.NewSource(21))
	rows := randRows(rng, 32, features, 0.5)
	idx, val := toCSRRows(rows)
	want := make([]int, len(rows))
	if err := p.PredictDense(rows, want); err != nil {
		t.Fatal(err)
	}

	reg := NewRegistry()
	reg.Swap(p, ModelMeta{})
	b := NewBatcher(reg, BatcherConfig{MaxBatch: 8, MaxLinger: 100 * time.Microsecond, QueueDepth: 512})
	defer b.Close()

	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			probs := make([]float64, classes)
			for k := 0; k < perWorker; k++ {
				i := (worker*perWorker + k) % len(rows)
				var got int
				var err error
				switch k % 3 {
				case 0:
					got, err = b.Predict(rows[i])
				case 1:
					got, err = b.PredictCSR(idx[i], val[i])
				default:
					got, err = b.Proba(rows[i], probs)
					if err == nil {
						var sum float64
						for _, v := range probs {
							sum += v
						}
						if math.Abs(sum-1) > 1e-9 {
							errCh <- errors.New("probabilities do not sum to 1")
							return
						}
					}
				}
				if err != nil {
					errCh <- err
					return
				}
				if got != want[i] {
					errCh <- errors.New("wrong class from batcher")
					return
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	st := b.Stats()
	if st.Submitted != workers*perWorker || st.Completed != st.Submitted || st.Rejected != 0 {
		t.Fatalf("stats %+v", st)
	}
	if st.Batches >= st.Completed {
		t.Fatalf("no batching happened: %d batches for %d requests", st.Batches, st.Completed)
	}
}

// TestBatcherRespectsMaxBatch checks no launch ever exceeds MaxBatch and
// queued requests coalesce greedily into one batch.
func TestBatcherRespectsMaxBatch(t *testing.T) {
	f := &fakeScorer{classes: 3, features: 4, gate: make(chan struct{}, 64), entered: make(chan struct{}, 64)}
	b := NewBatcher(fakeSource{s: f}, BatcherConfig{MaxBatch: 16, MaxLinger: -1, QueueDepth: 64})
	defer b.Close()

	row := []float64{1, 0, 0, 0}
	// One request reaches the scorer and blocks there.
	res := make(chan error, 64)
	submit := func() {
		_, err := b.Predict(row)
		res <- err
	}
	go submit()
	<-f.entered

	// 10 more pile into the queue while the first batch is in flight.
	for i := 0; i < 10; i++ {
		go submit()
	}
	waitFor(t, func() bool { return b.Stats().Submitted == 11 })

	f.gate <- struct{}{} // release batch 1
	<-f.entered          // batch 2 at the scorer
	f.gate <- struct{}{} // release batch 2
	for i := 0; i < 11; i++ {
		if err := <-res; err != nil {
			t.Fatal(err)
		}
	}
	sizes := f.sizes()
	if len(sizes) != 2 || sizes[0] != 1 || sizes[1] != 10 {
		t.Fatalf("batch sizes %v, want [1 10]", sizes)
	}

	// A burst larger than MaxBatch splits into <= MaxBatch launches.
	// Pre-release the gate so the scorer flows freely (entered signals
	// are buffered and simply accumulate).
	for i := 0; i < 40; i++ {
		f.gate <- struct{}{}
	}
	for i := 0; i < 40; i++ {
		go submit()
	}
	for i := 0; i < 40; i++ {
		if err := <-res; err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range f.sizes() {
		if s > 16 {
			t.Fatalf("batch of %d exceeds MaxBatch 16", s)
		}
	}
}

// TestBatcherLingerBounds checks a partial batch launches within the
// linger window rather than waiting for MaxBatch, and that stragglers
// arriving inside the window join the batch.
func TestBatcherLingerBounds(t *testing.T) {
	f := &fakeScorer{classes: 3, features: 2}
	b := NewBatcher(fakeSource{s: f}, BatcherConfig{MaxBatch: 1000, MaxLinger: 25 * time.Millisecond, QueueDepth: 64})
	defer b.Close()

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Predict([]float64{2, 0}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed < 10*time.Millisecond {
		t.Fatalf("partial batch launched after %v, before the linger window", elapsed)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("partial batch took %v, linger bound not respected", elapsed)
	}
	var total int
	for _, s := range f.sizes() {
		total += s
	}
	if total != 3 {
		t.Fatalf("scored %d rows, want 3", total)
	}
}

// TestBatcherBackpressure checks a full admission queue rejects with
// ErrQueueFull while every accepted request is still answered.
func TestBatcherBackpressure(t *testing.T) {
	f := &fakeScorer{classes: 3, features: 2, gate: make(chan struct{}, 64), entered: make(chan struct{}, 64)}
	b := NewBatcher(fakeSource{s: f}, BatcherConfig{MaxBatch: 1, MaxLinger: -1, QueueDepth: 4})
	defer b.Close()

	row := []float64{1, 0}
	res := make(chan error, 16)
	go func() { _, err := b.Predict(row); res <- err }()
	<-f.entered // one in flight, queue empty

	for i := 0; i < 4; i++ { // fill the queue exactly
		go func() { _, err := b.Predict(row); res <- err }()
	}
	waitFor(t, func() bool { return b.Stats().Submitted == 5 })

	if _, err := b.Predict(row); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: got %v, want ErrQueueFull", err)
	}
	st := b.Stats()
	if st.Rejected != 1 {
		t.Fatalf("rejected %d, want 1", st.Rejected)
	}

	// Release everything: all 5 accepted requests complete successfully.
	done := make(chan struct{})
	go func() {
		for i := 0; i < 5; i++ {
			f.gate <- struct{}{}
		}
		close(done)
	}()
	for i := 0; i < 5; i++ {
		if err := <-res; err != nil {
			t.Fatal(err)
		}
	}
	<-done
	st = b.Stats()
	if st.Completed != 5 || st.Submitted != 5 {
		t.Fatalf("accepted requests dropped: %+v", st)
	}
}

// TestBatcherCloseAnswersEverything checks shutdown rejects queued
// requests with ErrClosed instead of dropping them, and later submits
// fail fast.
func TestBatcherCloseAnswersEverything(t *testing.T) {
	f := &fakeScorer{classes: 3, features: 2, gate: make(chan struct{}, 64), entered: make(chan struct{}, 64)}
	b := NewBatcher(fakeSource{s: f}, BatcherConfig{MaxBatch: 1, MaxLinger: -1, QueueDepth: 8})

	row := []float64{1, 0}
	res := make(chan error, 16)
	go func() { _, err := b.Predict(row); res <- err }()
	<-f.entered
	for i := 0; i < 3; i++ {
		go func() { _, err := b.Predict(row); res <- err }()
	}
	waitFor(t, func() bool { return b.Stats().Submitted == 4 })

	closed := make(chan struct{})
	go func() { b.Close(); close(closed) }()
	f.gate <- struct{}{} // let the in-flight batch finish so Close can drain
	// The queued 3 may either be scored (if the loop dequeued them before
	// stop) or rejected with ErrClosed — but never lost.
	for i := 0; i < 3; i++ {
		select {
		case <-f.entered:
			f.gate <- struct{}{}
		case <-closed:
		}
	}
	okCount, closedCount := 0, 0
	for i := 0; i < 4; i++ {
		switch err := <-res; {
		case err == nil:
			okCount++
		case errors.Is(err, ErrClosed):
			closedCount++
		default:
			t.Fatalf("unexpected error %v", err)
		}
	}
	<-closed
	if okCount+closedCount != 4 {
		t.Fatalf("requests lost: %d ok, %d closed", okCount, closedCount)
	}
	if _, err := b.Predict(row); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v", err)
	}
	if st := b.Stats(); st.Completed != st.Submitted {
		t.Fatalf("accepted but unanswered requests: %+v", st)
	}
}

// TestBatcherNoModel propagates the source error to every request.
func TestBatcherNoModel(t *testing.T) {
	b := NewBatcher(fakeSource{err: ErrNoModel}, BatcherConfig{MaxBatch: 4, MaxLinger: -1})
	defer b.Close()
	if _, err := b.Predict([]float64{1}); !errors.Is(err, ErrNoModel) {
		t.Fatalf("got %v, want ErrNoModel", err)
	}
}

// TestBatcherIsolatesMalformedRows: one bad row in a coalesced batch
// must not fail its batchmates.
func TestBatcherIsolatesMalformedRows(t *testing.T) {
	const classes, features = 4, 8
	p := makePredictor(t, classes, features, 30)
	reg := NewRegistry()
	reg.Swap(p, ModelMeta{})
	b := NewBatcher(reg, BatcherConfig{MaxBatch: 8, MaxLinger: 5 * time.Millisecond, QueueDepth: 64})
	defer b.Close()

	rng := rand.New(rand.NewSource(31))
	good := randRows(rng, 4, features, 1)
	want := make([]int, len(good))
	if err := p.PredictDense(good, want); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	bad := []float64{1, 2} // wrong width
	badErr := make(chan error, 1)
	gotClasses := make([]int, len(good))
	errs := make([]error, len(good))
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := b.Predict(bad)
		badErr <- err
	}()
	for i := range good {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gotClasses[i], errs[i] = b.Predict(good[i])
		}(i)
	}
	wg.Wait()
	if err := <-badErr; err == nil {
		t.Fatal("malformed row scored without error")
	}
	for i := range good {
		if errs[i] != nil {
			t.Fatalf("good row %d poisoned by batchmate: %v", i, errs[i])
		}
		if gotClasses[i] != want[i] {
			t.Fatalf("good row %d: class %d, want %d", i, gotClasses[i], want[i])
		}
	}
}

// TestBatcherRejectsNilDenseRow: a nil row must fail at submit instead
// of being mis-partitioned as an empty sparse request.
func TestBatcherRejectsNilDenseRow(t *testing.T) {
	f := &fakeScorer{classes: 3, features: 2}
	b := NewBatcher(fakeSource{s: f}, BatcherConfig{MaxBatch: 4, MaxLinger: -1})
	defer b.Close()
	if _, err := b.Predict(nil); err == nil {
		t.Fatal("nil dense row accepted")
	}
}

// TestBatcherProbaShapeChangeOnSwap: a proba request admitted against a
// C-class model but scored (after a hot swap) by a model with a
// different class count must fail explicitly, never return a truncated
// or padded probability vector.
func TestBatcherProbaShapeChangeOnSwap(t *testing.T) {
	const features = 6
	reg := NewRegistry()
	p3 := makePredictor(t, 3, features, 50)
	reg.Swap(p3, ModelMeta{})
	b := NewBatcher(reg, BatcherConfig{MaxBatch: 4, MaxLinger: -1, QueueDepth: 16})
	defer b.Close()

	// Warm: a 3-entry buffer works against the 3-class model.
	row := make([]float64, features)
	row[0] = 1
	probs := make([]float64, 3)
	if _, err := b.Proba(row, probs); err != nil {
		t.Fatal(err)
	}

	// Swap in a 5-class model; the stale 3-entry buffer must now be
	// rejected with a shape error rather than silently truncated.
	p5 := makePredictor(t, 5, features, 51)
	reg.Swap(p5, ModelMeta{})
	if _, err := b.Proba(row, probs); !errors.Is(err, ErrModelShapeChanged) {
		t.Fatalf("3-entry proba buffer against 5-class model: got %v, want ErrModelShapeChanged", err)
	}
	// A correctly sized buffer succeeds and sums to 1.
	probs5 := make([]float64, 5)
	if _, err := b.Proba(row, probs5); err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range probs5 {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 5s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

var errPoison = errors.New("poisoned row")

// poisonScorer is a fakeScorer that fails any batch holding a row whose
// first value is negative, so the batcher's per-row retry must isolate
// that row from its batchmates.
type poisonScorer struct{ *fakeScorer }

func (p poisonScorer) PredictDense(rows [][]float64, out []int) error {
	for _, r := range rows {
		if r[0] < 0 {
			return errPoison
		}
	}
	return p.fakeScorer.PredictDense(rows, out)
}

func (p poisonScorer) PredictCSR(idx [][]int, val [][]float64, out []int) error {
	for _, v := range val {
		if v[0] < 0 {
			return errPoison
		}
	}
	return p.fakeScorer.PredictCSR(idx, val, out)
}

// TestScoreBatchNoAbandon pins ScoreBatch's contract, which every
// replica-side caller relies on: rows are submitted before any is
// waited on; a submit failure stops submitting but every accepted row
// is still answered; the error names the row it belongs to; and a
// caller's trace is timed once, on the first row, and left unpublished.
// The loop is held in the scorer by a blocker request, so the batch's
// rows queue up behind it and the queue-full row is deterministic.
func TestScoreBatchNoAbandon(t *testing.T) {
	cases := []struct {
		name     string
		n, depth int  // rows in the batch; per-class QueueDepth
		bad      int  // row the scorer rejects; -1 none
		traced   bool // pass a caller-owned trace
		wantInst int  // instance the error names; -1 no error
		wantIs   error
	}{
		{name: "queue full at row 2 of 5", n: 5, depth: 2, bad: -1, wantInst: 2, wantIs: ErrQueueFull},
		{name: "caller trace", n: 4, depth: 8, bad: -1, traced: true, wantInst: -1},
		{name: "scorer rejects row 1", n: 4, depth: 8, bad: 1, wantInst: 1, wantIs: errPoison},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := &fakeScorer{classes: 3, features: 2, gate: make(chan struct{}), entered: make(chan struct{}, 64)}
			b := NewBatcher(fakeSource{s: poisonScorer{f}}, BatcherConfig{MaxBatch: 8, MaxLinger: -1, QueueDepth: c.depth, SampleEvery: -1})
			defer b.Close()
			blocker := make(chan error, 1)
			go func() { _, err := b.Predict([]float64{0, 0}); blocker <- err }()
			<-f.entered

			// Dense and sparse rows alternate, so the bad row shares its
			// sub-batch with a good one.
			var rows wire.Batch
			for i := 0; i < c.n; i++ {
				v := float64(i + 1)
				if i == c.bad {
					v = -v
				}
				if i%2 == 0 {
					rows.AddDense([]float64{v, 0})
				} else {
					rows.AddCSR([]int{0}, []float64{v})
				}
			}
			var tr *obs.Trace
			if c.traced {
				tr = obs.NewRecorder(0).Start(time.Now())
			}
			preds := make([]int, c.n)
			for i := range preds {
				preds[i] = -1
			}
			done := make(chan error, 1)
			go func() { done <- b.ScoreBatch(&rows, control.Interactive, tr, preds, nil) }()
			accepted, rejected := min(c.n, c.depth), int64(0)
			if c.n > c.depth {
				rejected = 1
			}
			waitFor(t, func() bool {
				st := b.Stats()
				return st.Submitted == int64(1+accepted) && st.Rejected == rejected
			})
			close(f.gate)
			err := <-done
			if berr := <-blocker; berr != nil {
				t.Fatalf("blocker: %v", berr)
			}

			if c.wantInst < 0 {
				if err != nil {
					t.Fatalf("ScoreBatch: %v", err)
				}
			} else if prefix := fmt.Sprintf("instance %d: ", c.wantInst); err == nil || !strings.HasPrefix(err.Error(), prefix) || !errors.Is(err, c.wantIs) {
				t.Fatalf("ScoreBatch error %v, want %q prefix matching %v", err, prefix, c.wantIs)
			}
			for i, got := range preds {
				if i == c.bad {
					continue // answered with its error
				}
				want := -1 // never accepted: left untouched
				if i < accepted {
					want = f.classOf(float64(i + 1))
				}
				if got != want {
					t.Errorf("row %d: pred %d, want %d", i, got, want)
				}
			}
			if n := b.InFlight(); n != 0 {
				t.Errorf("InFlight %d after ScoreBatch returned", n)
			}
			if c.traced {
				count := map[obs.Stage]int{}
				for _, s := range tr.Spans() {
					count[s.Stage]++
				}
				want := map[obs.Stage]int{obs.StageQueue: 1, obs.StageLinger: 1, obs.StageExecute: 1}
				if fmt.Sprint(count) != fmt.Sprint(want) {
					t.Errorf("caller trace spans %v, want %v", count, want)
				}
				if n := b.Recorder().Finished(); n != 0 {
					t.Errorf("batcher published %d traces, want 0 (the caller owns its trace)", n)
				}
			}
		})
	}
}
