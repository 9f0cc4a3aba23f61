package obs

import (
	"fmt"
	"io"
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram bucket geometry: log2 major buckets subdivided linearly, the
// coarse HDR layout every serving stack uses. Durations are recorded in
// nanoseconds; with 32 sub-buckets per octave the relative quantile error
// is bounded by 1/32 ≈ 3%, constant across the microsecond-to-minute
// range a latency distribution spans.
const (
	histSubBits = 5 // sub-buckets per octave = 2^5
	histSub     = 1 << histSubBits
	histOctaves = 40 // covers up to 2^40 ns ≈ 18 minutes
	histBuckets = histOctaves * histSub
)

// Histogram is a fixed-footprint log-bucketed latency histogram safe for
// concurrent Observe calls (lock-free atomic counters). It powers the
// serving layer's request-latency and batch-size accounting: the batcher
// records every request, /metricz renders quantiles, and the load
// generator reports p50/p95/p99 from the same type.
//
// The zero value is NOT ready to use; call NewHistogram.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds; saturates, fine for reporting
	min     atomic.Int64
	max     atomic.Int64
	buckets []atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{buckets: make([]atomic.Int64, histBuckets)}
	h.min.Store(math.MaxInt64)
	return h
}

// bucketIndex maps a nanosecond value to its bucket. Values below one
// sub-bucket land in the linear first octave; the index is monotone in v.
func bucketIndex(v int64) int {
	if v < histSub {
		return int(v) // first octave is exact
	}
	// Position of the leading bit selects the octave; the histSubBits
	// bits below it select the sub-bucket.
	octave := bits.Len64(uint64(v)) - 1
	sub := (v >> (uint(octave) - histSubBits)) & (histSub - 1)
	idx := (octave-histSubBits+1)*histSub + int(sub)
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// bucketLower returns the smallest value mapping to bucket idx (the
// inverse of bucketIndex on bucket boundaries).
func bucketLower(idx int) int64 {
	if idx < histSub {
		return int64(idx)
	}
	octave := idx/histSub + histSubBits - 1
	sub := int64(idx % histSub)
	return (1 << uint(octave)) | (sub << (uint(octave) - histSubBits))
}

// quantileWalk is the one rank → bucket → interpolation walk behind
// Histogram.Quantile and Delta.Advance: for n observations whose bucket
// i holds count(i), it finds the bucket holding rank q·(n-1) (q clamped
// to [0,1]) and interpolates linearly inside it, up to the next
// bucket's lower edge or top for the last bucket. ok is false when the
// counts run out before the rank (a racing Observe, or a NaN q).
func quantileWalk(n int64, q float64, top int64, count func(i int) int64) (v float64, ok bool) {
	rank := min(max(q, 0), 1) * float64(n-1)
	var seen float64
	for i := 0; i < histBuckets; i++ {
		c := float64(count(i))
		if c <= 0 {
			continue
		}
		if seen+c > rank {
			lo, hi := bucketLower(i), top
			if i+1 < histBuckets {
				hi = bucketLower(i + 1)
			}
			frac := (rank - seen + 0.5) / c
			return float64(lo) + frac*float64(hi-lo), true
		}
		seen += c
	}
	return 0, false
}

// Observe records one duration. Negative durations count as zero.
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveValue records a plain count (e.g. a batch size) as nanoseconds,
// so the same quantile machinery serves non-duration distributions.
func (h *Histogram) ObserveValue(v int64) { h.Observe(time.Duration(v)) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the mean observation; zero when empty.
func (h *Histogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / n)
}

// Min and Max return the observed extremes (zero when empty).
func (h *Histogram) Min() time.Duration {
	if h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.min.Load())
}

// Max returns the largest observation (zero when empty).
func (h *Histogram) Max() time.Duration {
	if h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.max.Load())
}

// Quantile returns the q-quantile (q in [0,1]) of the recorded
// distribution, with linear interpolation inside the winning bucket,
// clamped to the observed [min, max]. Concurrent Observe calls may skew
// an in-flight Quantile by the races' worth of samples — acceptable for
// monitoring, which is its job.
func (h *Histogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	v, ok := quantileWalk(n, q, h.max.Load(), func(i int) int64 { return h.buckets[i].Load() })
	if !ok {
		return time.Duration(h.max.Load())
	}
	if mx := h.max.Load(); v > float64(mx) {
		v = float64(mx)
	}
	if mn := h.min.Load(); v < float64(mn) {
		v = float64(mn)
	}
	return time.Duration(v)
}

// Snapshot is a point-in-time summary of a histogram.
type Snapshot struct {
	Count          int64
	Mean, Min, Max time.Duration
	P50, P95, P99  time.Duration
}

// Snapshot returns the standard reporting summary.
func (h *Histogram) Snapshot() Snapshot {
	return Snapshot{
		Count: h.Count(),
		Mean:  h.Mean(), Min: h.Min(), Max: h.Max(),
		P50: h.Quantile(0.50), P95: h.Quantile(0.95), P99: h.Quantile(0.99),
	}
}

func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v min=%v p50=%v p95=%v p99=%v max=%v",
		s.Count, s.Mean, s.Min, s.P50, s.P95, s.P99, s.Max)
}

// WriteSummary renders h as the six summary rows of /metricz —
// name_count and name_{mean,p50,p95,p99,max}_seconds, each with labels
// (pre-rendered pairs, may be empty). Registry.Duration rows and the
// router's per-replica leg latencies both render through it.
func WriteSummary(w io.Writer, name, labels string, h *Histogram) {
	s := h.Snapshot()
	fmt.Fprintf(w, "%s %d\n", withLabels(name+"_count", labels), s.Count)
	for _, r := range [...]struct {
		suffix string
		v      time.Duration
	}{{"mean", s.Mean}, {"p50", s.P50}, {"p95", s.P95}, {"p99", s.P99}, {"max", s.Max}} {
		fmt.Fprintf(w, "%s %.9f\n", withLabels(name+"_"+r.suffix+"_seconds", labels), r.v.Seconds())
	}
}

// Delta windows a cumulative Histogram: each Advance computes quantiles
// over only the observations recorded since the previous Advance. A
// control loop needs this — the cumulative p99 never recovers after a
// load spike, which would wedge any scale-down decision keyed on it —
// while the histogram itself stays the cheap lock-free cumulative type
// the hot path records into.
//
// Delta is NOT safe for concurrent use; the control loop that owns it
// calls Advance once per tick.
type Delta struct {
	h    *Histogram
	prev []int64
	cur  []int64
}

// NewDelta starts a window over h; the first Advance covers everything
// observed since this call.
func NewDelta(h *Histogram) *Delta {
	d := &Delta{h: h, prev: make([]int64, histBuckets), cur: make([]int64, histBuckets)}
	for i := range d.prev {
		d.prev[i] = h.buckets[i].Load()
	}
	return d
}

// Advance closes the current window and returns its observation count
// and q-quantile (zero when the window is empty). The last bucket's
// upper edge is twice its lower edge: a window has no max of its own.
// Concurrent Observe calls may land on either side of the boundary —
// acceptable for a monitoring signal.
func (d *Delta) Advance(q float64) (count int64, quantile time.Duration) {
	for i := range d.cur {
		d.cur[i] = d.h.buckets[i].Load()
		count += d.cur[i] - d.prev[i]
	}
	if count > 0 {
		v, _ := quantileWalk(count, q, 2*bucketLower(histBuckets-1), func(i int) int64 { return d.cur[i] - d.prev[i] })
		quantile = time.Duration(v)
	}
	d.prev, d.cur = d.cur, d.prev
	return count, quantile
}
