package serve

import (
	"errors"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"newtonadmm/internal/control"
)

// rejectAll is a policy that refuses everything.
type rejectAll struct{}

func (rejectAll) Name() string { return "reject-all" }
func (rejectAll) Admit(int64, control.Priority) control.Decision {
	return control.Decision{Reason: control.ReasonRateLimited, RetryAfter: time.Second}
}

// TestBatcherPolicyRejectNoPublish: a policy rejection takes no queue
// slot and publishes no state — Submitted stays zero, queues stay
// empty, and the error is the typed 429 with reason and retry hint.
func TestBatcherPolicyRejectNoPublish(t *testing.T) {
	f := &fakeScorer{classes: 3, features: 4}
	b := NewBatcher(fakeSource{s: f}, BatcherConfig{MaxBatch: 4, MaxLinger: -1, QueueDepth: 8})
	defer b.Close()
	b.SetPolicy(rejectAll{})

	row := []float64{1, 2, 3, 4}
	for i := 0; i < 10; i++ {
		_, err := b.SubmitDense(row, nil)
		if !errors.Is(err, ErrQueueFull) {
			t.Fatalf("policy reject is not in the ErrQueueFull class: %v", err)
		}
		reason, retry, ok := RejectionOf(err)
		if !ok || reason != control.ReasonRateLimited || retry != time.Second {
			t.Fatalf("RejectionOf = (%v, %v, %v), want (rate_limited, 1s, true)", reason, retry, ok)
		}
	}
	st := b.Stats()
	if st.Submitted != 0 {
		t.Fatalf("rejected requests published Submitted=%d, must be 0", st.Submitted)
	}
	if st.Rejected != 10 {
		t.Fatalf("Rejected = %d, want 10", st.Rejected)
	}
	if b.AdmissionStats().Count(control.ReasonRateLimited) != 10 {
		t.Fatalf("reason counter = %d, want 10", b.AdmissionStats().Count(control.ReasonRateLimited))
	}
	for c := control.Priority(0); c < control.NumPriorities; c++ {
		if n := b.QueueLen(c); n != 0 {
			t.Fatalf("class %v queue holds %d rejected requests", c, n)
		}
	}
	// Open admission back up: the same batcher serves normally.
	b.SetPolicy(nil)
	if _, err := b.Predict(row); err != nil {
		t.Fatalf("predict after reopening admission: %v", err)
	}
}

// TestBatcherOverflowRejectNoPublish: a queue-overflow reject must not
// leak traces or stamps. SampleEvery=1 would publish a trace per
// accepted request; rejected ones must discard theirs.
func TestBatcherOverflowRejectNoPublish(t *testing.T) {
	f := &fakeScorer{classes: 3, features: 4, gate: make(chan struct{}), entered: make(chan struct{}, 16)}
	b := NewBatcher(fakeSource{s: f}, BatcherConfig{MaxBatch: 1, MaxLinger: -1, QueueDepth: 2, SampleEvery: 1})
	defer b.Close()
	row := []float64{1, 2, 3, 4}

	// First request reaches the (gated) scorer; the next two fill the
	// interactive queue.
	t1, err := b.SubmitDense(row, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-f.entered
	var tickets []Ticket
	for i := 0; i < 2; i++ {
		tk, err := b.SubmitDense(row, nil)
		if err != nil {
			t.Fatalf("fill %d: %v", i, err)
		}
		tickets = append(tickets, tk)
	}
	// Queue full: overflow rejects, typed queue_full.
	var rejects int
	for i := 0; i < 5; i++ {
		if _, err := b.SubmitDense(row, nil); err != nil {
			if !errors.Is(err, ErrQueueFull) {
				t.Fatalf("overflow error: %v", err)
			}
			reason, _, _ := RejectionOf(err)
			if reason != control.ReasonQueueFull {
				t.Fatalf("overflow reason = %v, want queue_full", reason)
			}
			rejects++
		}
	}
	if rejects == 0 {
		t.Fatal("no overflow rejection with a full queue")
	}
	st := b.Stats()
	if st.Submitted != 3 {
		t.Fatalf("Submitted = %d, want exactly the 3 accepted", st.Submitted)
	}
	if b.AdmissionStats().Count(control.ReasonQueueFull) != uint64(rejects) {
		t.Fatalf("queue_full counter = %d, want %d", b.AdmissionStats().Count(control.ReasonQueueFull), rejects)
	}
	close(f.gate)
	if _, err := t1.Wait(); err != nil {
		t.Fatal(err)
	}
	for _, tk := range tickets {
		if _, err := tk.Wait(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestBatcherPolicySwapUnderLoad hammers the batcher while admission
// flips between open, a tight bucket, and closed — the -race pin for
// the atomic policy seam. Every outcome must be a success or a typed
// rejection, and the counters must account for every attempt.
func TestBatcherPolicySwapUnderLoad(t *testing.T) {
	f := &fakeScorer{classes: 3, features: 4}
	b := NewBatcher(fakeSource{s: f}, BatcherConfig{MaxBatch: 8, MaxLinger: 50 * time.Microsecond, QueueDepth: 64})
	defer b.Close()

	const workers = 6
	var ok, rejected atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			row := []float64{float64(w), 1, 2, 3}
			pri := control.Priority(w % control.NumPriorities)
			for {
				select {
				case <-stop:
					return
				default:
				}
				tk, err := b.submitRow(false, row, nil, nil, nil, pri, nil)
				if err != nil {
					if !errors.Is(err, ErrQueueFull) {
						t.Errorf("unexpected submit error: %v", err)
						return
					}
					rejected.Add(1)
					continue
				}
				if _, err := tk.Wait(); err != nil {
					t.Errorf("wait: %v", err)
					return
				}
				ok.Add(1)
			}
		}(w)
	}
	policies := []control.AdmissionPolicy{
		nil, control.NewTokenBucket(50, 1), control.AlwaysAdmit{}, rejectAll{}, control.NewCostPolicy(100, 10),
	}
	for i := 0; i < 200; i++ {
		b.SetPolicy(policies[i%len(policies)])
		time.Sleep(200 * time.Microsecond)
	}
	b.SetPolicy(nil)
	if b.Policy() != nil {
		t.Fatal("Policy() != nil after clearing")
	}
	close(stop)
	wg.Wait()
	st := b.Stats()
	if st.Submitted != ok.Load() {
		t.Fatalf("Submitted=%d but %d requests completed", st.Submitted, ok.Load())
	}
	if st.Rejected != rejected.Load() || b.AdmissionStats().Total() != uint64(rejected.Load()) {
		t.Fatalf("Rejected=%d reasons=%d callers saw %d", st.Rejected, b.AdmissionStats().Total(), rejected.Load())
	}
	if ok.Load() == 0 || rejected.Load() == 0 {
		t.Fatalf("load mix degenerate: ok=%d rejected=%d (want both nonzero)", ok.Load(), rejected.Load())
	}
}

// TestPriorityStarvationBound is the acceptance pin for the control
// plane: with a token-bucket policy and a background flood, interactive
// traffic within the refill rate sees ZERO rejections (background's
// half-burst reserve floor absorbs them all) and its latency stays
// bounded (the 16/4/1 weighted dequeue keeps it moving through the
// flood).
func TestPriorityStarvationBound(t *testing.T) {
	f := &fakeScorer{classes: 3, features: 4}
	b := NewBatcher(fakeSource{s: f}, BatcherConfig{MaxBatch: 8, MaxLinger: -1, QueueDepth: 64})
	defer b.Close()
	// Refill 2000/s, burst 50: background refused once the bucket dips
	// under 25 tokens; interactive may drain to zero.
	b.SetPolicy(control.NewTokenBucket(2000, 50))

	stop := make(chan struct{})
	var bgRejected, bgOK atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			row := []float64{9, 9, 9, 9}
			for {
				select {
				case <-stop:
					return
				default:
				}
				tk, err := b.submitRow(false, row, nil, nil, nil, control.Background, nil)
				if err != nil {
					if !errors.Is(err, ErrQueueFull) {
						t.Errorf("background: %v", err)
						return
					}
					bgRejected.Add(1)
					continue
				}
				if _, err := tk.Wait(); err != nil {
					t.Errorf("background wait: %v", err)
					return
				}
				bgOK.Add(1)
			}
		}()
	}

	// Interactive trickle: 200 requests at ~1ms spacing (~1000/s, half
	// the refill rate).
	const n = 200
	lat := make([]time.Duration, 0, n)
	var itRejected int
	row := []float64{1, 2, 3, 4}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		tk, err := b.SubmitDense(row, nil)
		if err != nil {
			itRejected++
			continue
		}
		if _, err := tk.Wait(); err != nil {
			t.Fatalf("interactive wait: %v", err)
		}
		lat = append(lat, time.Since(t0))
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if itRejected != 0 {
		t.Fatalf("interactive absorbed %d rejections; the reserve floor must route all of them to background", itRejected)
	}
	if bgRejected.Load() == 0 {
		t.Fatal("background flood saw no rejections — the bucket never saturated, test is not exercising the bound")
	}
	if bgOK.Load() == 0 {
		t.Fatal("background starved completely — weight >= 1 guarantees progress")
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	p99 := lat[len(lat)*99/100]
	if p99 > time.Second {
		t.Fatalf("interactive p99 = %v under background flood, want bounded (< 1s)", p99)
	}
}
