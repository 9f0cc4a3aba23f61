package device_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"newtonadmm/internal/device"
	"newtonadmm/internal/linalg"
)

func TestParallelForCoversRangeExactlyOnce(t *testing.T) {
	d := device.New("test", 4)
	defer d.Close()
	for _, n := range []int{0, 1, 2, 3, 7, 100, 1023} {
		hits := make([]int32, n)
		var mu sync.Mutex
		d.ParallelFor(n, 1, func(lo, hi int) {
			mu.Lock()
			for i := lo; i < hi; i++ {
				hits[i]++
			}
			mu.Unlock()
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestParallelForSingleWorker(t *testing.T) {
	d := device.New("single", 1)
	defer d.Close()
	sum := 0
	d.ParallelFor(10, 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sum += i
		}
	})
	if sum != 45 {
		t.Fatalf("sum = %d, want 45", sum)
	}
}

func TestStatsAccounting(t *testing.T) {
	d := device.New("test", 2)
	defer d.Close()
	if s := d.Stats(); s.Launches != 0 || s.FLOPs != 0 {
		t.Fatal("fresh device should have zero stats")
	}
	a := linalg.NewMatrix(10, 4)
	b := make([]float64, 3*4)
	s := make([]float64, 10*3)
	d.MulNT(a, b, 3, s)
	st := d.Stats()
	if st.Launches != 1 {
		t.Fatalf("launches = %d, want 1", st.Launches)
	}
	if st.FLOPs != 2*10*4*3 {
		t.Fatalf("flops = %d, want %d", st.FLOPs, 2*10*4*3)
	}
}

func TestCloseThenUsePanics(t *testing.T) {
	d := device.New("test", 2)
	d.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on closed device")
		}
	}()
	d.ParallelFor(10, 0, func(lo, hi int) {})
}

func TestCloseIdempotent(t *testing.T) {
	d := device.New("test", 2)
	d.Close()
	d.Close() // must not panic
}

func TestConcurrentIndependentDevices(t *testing.T) {
	// Multiple devices (as cluster ranks have) must work concurrently.
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			d := device.New("rank", 2)
			defer d.Close()
			var total atomic.Int64
			d.ParallelFor(1000, 0, func(lo, hi int) { total.Add(int64(hi - lo)) })
			if total.Load() != 1000 {
				t.Errorf("rank %d: covered %d rows", r, total.Load())
			}
		}(r)
	}
	wg.Wait()
}
