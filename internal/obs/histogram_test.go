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
