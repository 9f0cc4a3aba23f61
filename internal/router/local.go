package router

import "newtonadmm/internal/serve"

// LocalBackend is an in-process replica: its own hot-swap Registry over
// a Predictor with its own device, and an optional reloader. It holds
// no batcher: the router already coalesced the whole client batch, so
// a leg scores it in at most two launches via Predictor.ScoresBatch.
type LocalBackend struct {
	reg      *serve.Registry
	reloadFn func() (int64, error) // nil: Reload unsupported
}

// NewLocalBackend wraps an in-process registry. reload may be nil.
func NewLocalBackend(reg *serve.Registry, reload func() (int64, error)) *LocalBackend {
	return &LocalBackend{reg: reg, reloadFn: reload}
}

// Registry exposes the replica's registry for hot-swapping snapshots
// while the router serves (the public API and tests swap through it).
func (l *LocalBackend) Registry() *serve.Registry { return l.reg }

// Meta reports the current snapshot's metadata.
func (l *LocalBackend) Meta() (serve.ModelMeta, error) {
	mm, ok := l.reg.Meta()
	if !ok {
		return serve.ModelMeta{}, serve.ErrNoModel
	}
	return mm, nil
}

// PartialScores scores the raw explicit-class logits of this replica's
// weight rows (rows x cols, arrival order).
func (l *LocalBackend) PartialScores(b *Batch, cols int, out []float64) (int64, error) {
	p, mm, release, err := l.reg.AcquireCurrent()
	if err != nil {
		return 0, err
	}
	defer release()
	return mm.Version, p.ScoresBatch(&b.Batch, cols, out)
}

// Reload hot-swaps the replica's checkpoint through the configured
// reloader.
func (l *LocalBackend) Reload() (int64, error) {
	if l.reloadFn == nil {
		return 0, serve.ErrNoModel
	}
	return l.reloadFn()
}

// Close retires the registry's snapshot (its device closes when the
// last in-flight batch releases).
func (l *LocalBackend) Close() { l.reg.Close() }
