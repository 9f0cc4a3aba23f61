package obs

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

func TestBucketIndexMonotoneAndInverse(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 2, 31, 32, 33, 63, 64, 100, 1023, 1024,
		1 << 20, 1<<20 + 7, 1 << 30, 1 << 39, 1 << 45} {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
		if idx < histBuckets-1 {
			if lo := bucketLower(idx); lo > v {
				t.Fatalf("bucketLower(%d)=%d exceeds member %d", idx, lo, v)
			}
			if hi := bucketLower(idx + 1); hi <= v && idx+1 < histBuckets {
				t.Fatalf("value %d outside bucket %d: next lower %d", v, idx, hi)
			}
		}
	}
	// Boundary round-trip: every bucket's lower bound maps to itself.
	for idx := 0; idx < histBuckets; idx++ {
		if got := bucketIndex(bucketLower(idx)); got != idx {
			t.Fatalf("round trip bucket %d -> %d", idx, got)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	// 1..1000 microseconds uniformly: quantiles are known exactly.
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count %d", h.Count())
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{
		{0.50, 500 * time.Microsecond},
		{0.95, 950 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
	} {
		got := h.Quantile(c.q)
		// Log buckets bound relative error by ~1/32 plus interpolation.
		if rel := (got.Seconds() - c.want.Seconds()) / c.want.Seconds(); rel < -0.05 || rel > 0.05 {
			t.Errorf("q%.2f = %v, want ~%v", c.q, got, c.want)
		}
	}
	if h.Min() != time.Microsecond || h.Max() != 1000*time.Microsecond {
		t.Errorf("min=%v max=%v", h.Min(), h.Max())
	}
	if mean := h.Mean(); mean < 480*time.Microsecond || mean > 520*time.Microsecond {
		t.Errorf("mean %v", mean)
	}
}

func TestHistogramAgainstExactQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	h := NewHistogram()
	vals := make([]float64, 5000)
	for i := range vals {
		// Log-normal-ish latencies spanning 3 decades.
		v := time.Duration(1000 * (1 + rng.ExpFloat64()*500))
		vals[i] = float64(v)
		h.Observe(v)
	}
	sort.Float64s(vals)
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99} {
		exact := vals[int(q*float64(len(vals)-1))]
		got := float64(h.Quantile(q))
		if rel := (got - exact) / exact; rel < -0.08 || rel > 0.08 {
			t.Errorf("q%v: got %v, exact %v (rel %.3f)", q, got, exact, rel)
		}
	}
}

func TestHistogramEmptyAndClamp(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(-5 * time.Second) // clamps to zero
	if h.Max() != 0 || h.Count() != 1 {
		t.Fatalf("negative observation not clamped: max=%v", h.Max())
	}
	h.Observe(time.Hour * 24) // beyond the last octave still lands somewhere
	if h.Quantile(1) > 24*time.Hour {
		t.Fatalf("q1 %v exceeds max", h.Quantile(1))
	}
}

func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram()
	const workers, per = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(rng.Intn(1e6)))
			}
		}(int64(w))
	}
	wg.Wait()
	if h.Count() != workers*per {
		t.Fatalf("lost observations: %d", h.Count())
	}
	var sum int64
	for i := range h.buckets {
		sum += h.buckets[i].Load()
	}
	if sum != workers*per {
		t.Fatalf("bucket sum %d != %d", sum, workers*per)
	}
}

// TestHistogramQuantileEmptyAndClampedQ pins the edge contract: every
// quantile of an empty histogram is zero (not NaN, not a panic), and q
// outside [0,1] clamps to the endpoints instead of extrapolating.
func TestHistogramQuantileEmptyAndClampedQ(t *testing.T) {
	h := NewHistogram()
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty Quantile(%v) = %v, want 0", q, got)
		}
	}
	h.Observe(time.Millisecond)
	if got := h.Quantile(-0.5); got != h.Quantile(0) {
		t.Fatalf("Quantile(-0.5) = %v, want clamp to Quantile(0) = %v", got, h.Quantile(0))
	}
	if got := h.Quantile(1.5); got != h.Quantile(1) {
		t.Fatalf("Quantile(1.5) = %v, want clamp to Quantile(1) = %v", got, h.Quantile(1))
	}
}

// TestHistogramSingleObservation pins the degenerate distribution:
// after exactly one observation, min, max, mean, and every quantile
// collapse to that value exactly (the quantile interpolation must not
// leak bucket bounds past the observed extremes).
func TestHistogramSingleObservation(t *testing.T) {
	const v = 123456 * time.Nanosecond
	h := NewHistogram()
	h.Observe(v)
	if h.Count() != 1 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Min() != v || h.Max() != v || h.Mean() != v {
		t.Fatalf("min=%v max=%v mean=%v, want all %v", h.Min(), h.Max(), h.Mean(), v)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != v {
			t.Fatalf("Quantile(%v) = %v, want %v", q, got, v)
		}
	}
}

// TestHistogramConcurrentObserveSnapshot races writers against
// Snapshot readers under -race: mid-stream snapshots must be safe and
// count must never regress (min/p50/max ordering is only checked on
// the final quiesced snapshot — Snapshot's fields are read at slightly
// different instants, so mid-stream ordering is not guaranteed).
func TestHistogramConcurrentObserveSnapshot(t *testing.T) {
	h := NewHistogram()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				h.Observe(time.Duration(1 + rng.Intn(1e6)))
			}
		}(int64(w))
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		var lastCount int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := h.Snapshot()
			if s.Count < lastCount {
				t.Errorf("snapshot count regressed: %d -> %d", lastCount, s.Count)
				return
			}
			lastCount = s.Count
		}
	}()
	wg.Wait()
	close(stop)
	<-readerDone
	s := h.Snapshot()
	if s.Count != 4*5000 {
		t.Fatalf("final count %d, want %d", s.Count, 4*5000)
	}
	if s.P50 < s.Min || s.P50 > s.Max {
		t.Fatalf("inconsistent final snapshot: %v", s)
	}
}

// TestDeltaWindowsSinceNew pins the windowing contract: observations
// recorded before NewDelta are excluded, each Advance covers exactly the
// observations since the previous one, and a quiet window after a busy
// one reads empty (the prev/cur swap must not resurrect old counts).
func TestDeltaWindowsSinceNew(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 3; i++ {
		h.Observe(time.Hour) // pre-window noise the delta must not see
	}
	d := NewDelta(h)
	if n, q := d.Advance(0.99); n != 0 || q != 0 {
		t.Errorf("first window = (%d, %v), want (0, 0): pre-NewDelta observations leaked in", n, q)
	}
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond)
	}
	n, q := d.Advance(0.5)
	if n != 100 {
		t.Errorf("window count = %d, want 100", n)
	}
	if q < 500*time.Microsecond || q > 2*time.Millisecond {
		t.Errorf("window p50 = %v, want ~1ms (bucket resolution is ~3%%)", q)
	}
	if n, q := d.Advance(0.5); n != 0 || q != 0 {
		t.Errorf("quiet window after busy one = (%d, %v), want (0, 0)", n, q)
	}
}

// TestDeltaAllRejectedWindow is the control-plane edge the autoscaler
// depends on: when every request in a tick was rejected at admission,
// nothing reaches the latency histogram and the window is empty. Advance
// must report (0, 0) — not a stale quantile from the last busy window —
// or a rejected-everything fleet would look permanently slow.
func TestDeltaAllRejectedWindow(t *testing.T) {
	h := NewHistogram()
	d := NewDelta(h)
	for i := 0; i < 50; i++ {
		h.Observe(10 * time.Millisecond)
	}
	if n, _ := d.Advance(0.99); n != 50 {
		t.Fatalf("busy window count = %d, want 50", n)
	}
	for win := 0; win < 3; win++ {
		if n, q := d.Advance(0.99); n != 0 || q != 0 {
			t.Errorf("all-rejected window %d = (%d, %v), want (0, 0)", win, n, q)
		}
	}
}

// TestDeltaRecoversAfterSpike is Delta's reason to exist: after a load
// spike, the cumulative histogram's p99 stays wedged at the spike value
// forever, while the windowed p99 must drop back to the current traffic.
func TestDeltaRecoversAfterSpike(t *testing.T) {
	h := NewHistogram()
	d := NewDelta(h)
	for i := 0; i < 1000; i++ {
		h.Observe(100 * time.Millisecond)
	}
	if _, q := d.Advance(0.99); q < 50*time.Millisecond {
		t.Fatalf("spike window p99 = %v, want >= 50ms", q)
	}
	for i := 0; i < 1000; i++ {
		h.Observe(time.Millisecond)
	}
	_, q := d.Advance(0.99)
	if q < 500*time.Microsecond || q > 10*time.Millisecond {
		t.Errorf("post-spike window p99 = %v, want ~1ms: the window did not recover", q)
	}
	if cum := h.Snapshot().P99; cum < 50*time.Millisecond {
		t.Errorf("cumulative p99 = %v, want still >= 50ms (that wedge is why Delta exists)", cum)
	}
}

// TestDeltaTopBucketAndClamp covers the wraparound edges: an observation
// beyond the histogram's 2^40ns range clamps into the last bucket (whose
// upper edge is synthesized as 2x its lower edge), and out-of-range
// quantile arguments clamp to [0, 1] instead of running off the buckets.
func TestDeltaTopBucketAndClamp(t *testing.T) {
	h := NewHistogram()
	d := NewDelta(h)
	h.Observe(30 * time.Minute) // beyond the ~18min range: last bucket
	n, q := d.Advance(0.99)
	if n != 1 {
		t.Fatalf("count = %d, want 1", n)
	}
	if q < time.Minute {
		t.Errorf("top-bucket quantile = %v, want a finite value >= 1m", q)
	}

	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	if n, q := d.Advance(-1); n != 10 || q <= 0 {
		t.Errorf("Advance(-1) = (%d, %v), want q clamped to 0 and a positive quantile", n, q)
	}
	for i := 0; i < 10; i++ {
		h.Observe(time.Millisecond)
	}
	if n, q := d.Advance(5); n != 10 || q < 500*time.Microsecond || q > 2*time.Millisecond {
		t.Errorf("Advance(5) = (%d, %v), want q clamped to 1 and ~1ms", n, q)
	}
}
