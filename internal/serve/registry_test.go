package serve

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"newtonadmm/internal/device"
	"newtonadmm/internal/wire"
)

// ownedPredictor builds a predictor that owns its device (so the
// registry's teardown can be observed through Device().Closed()).
func ownedPredictor(t testing.TB, classes, features int, seed int64) *Predictor {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, (classes-1)*features)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	p, err := NewPredictor(w, classes, features, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRegistryEmpty(t *testing.T) {
	reg := NewRegistry()
	if _, _, err := reg.Acquire(); !errors.Is(err, ErrNoModel) {
		t.Fatalf("got %v, want ErrNoModel", err)
	}
	if _, ok := reg.Meta(); ok {
		t.Fatal("empty registry reported a model")
	}
	reg.Close() // no-op on empty
}

func TestRegistrySwapVersionsAndMeta(t *testing.T) {
	reg := NewRegistry()
	p1 := ownedPredictor(t, 3, 4, 1)
	v1 := reg.Swap(p1, ModelMeta{Path: "a.nack", Solver: "newton-admm"})
	if v1 != 1 {
		t.Fatalf("first version %d", v1)
	}
	meta, ok := reg.Meta()
	if !ok || meta.Version != 1 || meta.Path != "a.nack" || meta.Classes != 3 || meta.Features != 4 {
		t.Fatalf("meta %+v", meta)
	}
	p2 := ownedPredictor(t, 3, 4, 2)
	if v2 := reg.Swap(p2, ModelMeta{Path: "b.nack"}); v2 != 2 {
		t.Fatalf("second version %d", v2)
	}
	// No acquirers were holding p1: its device must be closed by now.
	if !p1.Device().Closed() {
		t.Fatal("retired predictor's device not closed")
	}
	if p2.Device().Closed() {
		t.Fatal("current predictor's device closed")
	}
	reg.Close()
	if !p2.Device().Closed() {
		t.Fatal("Close did not release the current predictor")
	}
}

// TestRegistryHotSwapZeroDowntime is the headline swap test: readers
// acquire and score continuously while models swap underneath; every
// acquire must succeed on a live (unclosed) device, and every retired
// snapshot must be released once its readers drain.
func TestRegistryHotSwapZeroDowntime(t *testing.T) {
	const classes, features = 4, 6
	reg := NewRegistry()
	preds := make([]*Predictor, 5)
	preds[0] = ownedPredictor(t, classes, features, 10)
	reg.Swap(preds[0], ModelMeta{})

	rng := rand.New(rand.NewSource(11))
	rows := randRows(rng, 4, features, 1)
	out := make([]int, len(rows))
	_ = out

	stop := make(chan struct{})
	errCh := make(chan error, 8)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			myOut := make([]int, len(rows))
			for {
				select {
				case <-stop:
					return
				default:
				}
				s, rel, err := reg.Acquire()
				if err != nil {
					errCh <- err
					return
				}
				p := s.(*Predictor)
				if p.Device().Closed() {
					rel()
					errCh <- errors.New("acquired a predictor with a closed device")
					return
				}
				if err := p.PredictDense(rows, myOut); err != nil {
					rel()
					errCh <- err
					return
				}
				rel()
			}
		}()
	}

	for i := 1; i < len(preds); i++ {
		time.Sleep(2 * time.Millisecond)
		preds[i] = ownedPredictor(t, classes, features, int64(10+i))
		reg.Swap(preds[i], ModelMeta{})
	}
	time.Sleep(2 * time.Millisecond)
	close(stop)
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	// All retired snapshots must now be fully released; the live one not.
	deadline := time.Now().Add(5 * time.Second)
	for i := 0; i < len(preds)-1; i++ {
		for !preds[i].Device().Closed() {
			if time.Now().After(deadline) {
				t.Fatalf("retired predictor %d still holds its device", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	if preds[len(preds)-1].Device().Closed() {
		t.Fatal("live predictor closed prematurely")
	}
	reg.Close()
	if !preds[len(preds)-1].Device().Closed() {
		t.Fatal("registry Close did not release the last predictor")
	}
}

// TestRegistryAcquireHoldsSnapshotAcrossSwap: a reader holding a lease
// keeps its snapshot alive through a swap; release then closes it.
func TestRegistryAcquireHoldsSnapshotAcrossSwap(t *testing.T) {
	reg := NewRegistry()
	p1 := ownedPredictor(t, 3, 4, 20)
	reg.Swap(p1, ModelMeta{})

	s, rel, err := reg.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	p2 := ownedPredictor(t, 3, 4, 21)
	reg.Swap(p2, ModelMeta{})
	if p1.Device().Closed() {
		t.Fatal("held snapshot closed while leased")
	}
	// The lease still scores correctly on the old snapshot.
	out := make([]int, 1)
	if err := s.(*Predictor).PredictDense([][]float64{{1, 2, 3, 4}}, out); err != nil {
		t.Fatal(err)
	}
	rel()
	if !p1.Device().Closed() {
		t.Fatal("released retired snapshot not closed")
	}
	reg.Close()
}

func TestDeviceClosedAccessor(t *testing.T) {
	d := device.New("closed-test", 1)
	if d.Closed() {
		t.Fatal("fresh device reports closed")
	}
	d.Close()
	if !d.Closed() {
		t.Fatal("closed device reports open")
	}
	d.Close() // idempotent
}

// TestModelMetaWireRoundTrip pins the one ModelMeta <-> wire.Meta
// conversion pair: every field an OpMeta reply carries, zone included,
// survives ModelMeta.Wire, the frame codec and MetaFromWire.
func TestModelMetaWireRoundTrip(t *testing.T) {
	m := ModelMeta{
		Version: 7, Classes: 4, Features: 9,
		ShardIndex: 1, ShardCount: 3, ShardLow: 3, ShardHigh: 6, TotalClasses: 10,
		Zone: "rack-b",
	}
	wm := m.Wire()
	v := reflect.ValueOf(wm)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("ModelMeta.Wire left wire.Meta.%s zero", v.Type().Field(i).Name)
		}
	}
	var e wire.Encoder
	e.Begin(wire.OpMetaResp, 1)
	e.MetaResp(wm)
	_, payload, err := wire.NewReader(bytes.NewReader(e.Bytes())).Next()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := wire.DecodeMetaResp(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got := MetaFromWire(decoded); got != m {
		t.Fatalf("round trip: got %+v, want %+v", got, m)
	}
}
