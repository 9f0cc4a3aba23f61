package serve

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ModelMeta describes a registered model snapshot for health and metrics
// reporting.
type ModelMeta struct {
	Version  int64     `json:"version"`
	Path     string    `json:"path,omitempty"`
	Solver   string    `json:"solver,omitempty"`
	Classes  int       `json:"classes"`
	Features int       `json:"features"`
	LoadedAt time.Time `json:"loaded_at"`

	// Class-shard metadata, set when this snapshot holds only a slice of
	// a larger model's explicit class rows (ShardCount > 0): the snapshot
	// scores explicit classes [ShardLow, ShardHigh) of a model with
	// TotalClasses classes, and its own Classes is ShardHigh-ShardLow+1
	// (the slice plus the implicit reference class). The scatter-gather
	// router reads these from /healthz to plan partial-logit merges.
	ShardIndex   int `json:"shard_index,omitempty"`
	ShardCount   int `json:"shard_count,omitempty"`
	ShardLow     int `json:"shard_low,omitempty"`
	ShardHigh    int `json:"shard_high,omitempty"`
	TotalClasses int `json:"total_classes,omitempty"`

	// Zone is the placement zone/rack label the operator declared for
	// this replica ("" when undeclared). Routers read it to spread the
	// members of a replicated shard group across failure domains.
	Zone string `json:"zone,omitempty"`
}

// IsShard reports whether this snapshot is a class shard of a larger
// model rather than a full replica.
func (m ModelMeta) IsShard() bool { return m.ShardCount > 0 }

// Normalized returns m with a full replica's shard fields filled in: the
// whole explicit-class range [0, Classes-1) and TotalClasses = Classes.
// A class shard's metadata comes back unchanged. Routers plan and check
// fleets on normalized metadata, so R full copies tile the model like a
// one-shard grid.
func (m ModelMeta) Normalized() ModelMeta {
	if !m.IsShard() {
		m.ShardLow, m.ShardHigh = 0, m.Classes-1
		m.TotalClasses = m.Classes
	}
	return m
}

// entry is one registered snapshot with its reference count. The count
// starts at 1 (the registry's own reference); every Acquire adds one and
// every release drops one; the predictor's device is closed when the
// count reaches zero after the entry has been retired by a swap. That is
// the whole zero-downtime story: a swap never waits for in-flight
// batches, and in-flight batches never see a closed device.
type entry struct {
	pred      *Predictor
	meta      ModelMeta
	refs      atomic.Int64
	retired   atomic.Bool
	closeOnce sync.Once
}

func (e *entry) release() {
	if e.refs.Add(-1) == 0 && e.retired.Load() {
		e.closeOnce.Do(e.pred.Close)
	}
}

// Registry holds the currently served model behind an atomic pointer and
// hot-swaps new checkpoints in with zero downtime.
type Registry struct {
	mu      sync.Mutex // serializes Swap
	cur     atomic.Pointer[entry]
	version atomic.Int64
}

// NewRegistry returns an empty registry; Acquire fails with ErrNoModel
// until the first Swap.
func NewRegistry() *Registry { return &Registry{} }

// Swap atomically replaces the served model. The retired snapshot's
// device is released once its last in-flight batch drains. Returns the
// new version number.
func (r *Registry) Swap(p *Predictor, meta ModelMeta) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	meta.Version = r.version.Add(1)
	if meta.LoadedAt.IsZero() {
		meta.LoadedAt = time.Now()
	}
	meta.Classes, meta.Features = p.Classes(), p.Features()
	e := &entry{pred: p, meta: meta}
	e.refs.Store(1)
	old := r.cur.Swap(e)
	if old != nil {
		old.retired.Store(true)
		old.release()
	}
	return meta.Version
}

// Acquire returns the current predictor and a release function that must
// be called when the caller's batch is done with it. The snapshot stays
// fully usable until released, even across concurrent swaps.
func (r *Registry) Acquire() (Scorer, func(), error) {
	p, _, release, err := r.AcquireCurrent()
	if err != nil {
		return nil, nil, err
	}
	return p, release, nil
}

// AcquirePredictor is Acquire for callers that need the concrete
// *Predictor (the HTTP layer reports its device stats).
func (r *Registry) AcquirePredictor() (*Predictor, func(), error) {
	s, rel, err := r.Acquire()
	if err != nil {
		return nil, nil, err
	}
	return s.(*Predictor), rel, nil
}

// AcquireCurrent returns the current predictor together with its
// snapshot's metadata, atomically with the acquisition — the returned
// version always describes exactly the weights the predictor scores
// with, even across concurrent swaps. The shard scoring path uses it so
// the router can detect partial results computed against different model
// versions mid-rollout.
func (r *Registry) AcquireCurrent() (*Predictor, ModelMeta, func(), error) {
	for {
		e := r.cur.Load()
		if e == nil {
			return nil, ModelMeta{}, nil, ErrNoModel
		}
		e.refs.Add(1)
		if r.cur.Load() == e {
			return e.pred, e.meta, func() { e.release() }, nil
		}
		// Lost a race with Swap; drop the speculative reference (which
		// may be the one that closes the retired snapshot) and retry.
		e.release()
	}
}

// Meta returns the current model's metadata; ok is false when no model
// is registered.
func (r *Registry) Meta() (ModelMeta, bool) {
	e := r.cur.Load()
	if e == nil {
		return ModelMeta{}, false
	}
	return e.meta, true
}

// Close retires the current model (if any); its device is released once
// in-flight batches drain. Acquire fails with ErrNoModel afterwards.
func (r *Registry) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if old := r.cur.Swap(nil); old != nil {
		old.retired.Store(true)
		old.release()
	}
}

func (m ModelMeta) String() string {
	return fmt.Sprintf("model v%d (%d classes, %d features, solver %q)",
		m.Version, m.Classes, m.Features, m.Solver)
}
