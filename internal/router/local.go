package router

import "newtonadmm/internal/serve"

// LocalBackend is an in-process replica: its own hot-swap Registry and
// micro-batching Batcher over a Predictor with its own device, exactly
// the single-node serving stack. Full-model requests go through
// Batcher.ScoreBatch (so concurrent router requests coalesce into shared
// kernel launches and a full queue surfaces as serve.ErrQueueFull for
// failover); partial-score requests bypass it — the router already
// coalesced the whole client batch, so they score in at most two
// launches via Predictor.ScoresBatch.
type LocalBackend struct {
	reg      *serve.Registry
	bat      *serve.Batcher
	reloadFn func() (int64, error) // nil: Reload unsupported
}

// NewLocalBackend wraps an in-process serving stack. reload may be nil.
func NewLocalBackend(reg *serve.Registry, bat *serve.Batcher, reload func() (int64, error)) *LocalBackend {
	return &LocalBackend{reg: reg, bat: bat, reloadFn: reload}
}

// Registry exposes the replica's registry for hot-swapping snapshots
// while the router serves (the public API and tests swap through it).
func (l *LocalBackend) Registry() *serve.Registry { return l.reg }

// Batcher exposes the replica's micro-batcher (stats, drain hook).
func (l *LocalBackend) Batcher() *serve.Batcher { return l.bat }

// Meta reports the current snapshot's metadata.
func (l *LocalBackend) Meta() (serve.ModelMeta, error) {
	mm, ok := l.reg.Meta()
	if !ok {
		return serve.ModelMeta{}, serve.ErrNoModel
	}
	return mm, nil
}

// Score scores the batch against the full model via the micro-batcher
// (outputs in arrival order).
func (l *LocalBackend) Score(b *Batch, preds []int, proba []float64) error {
	return l.bat.ScoreBatch(&b.Batch, b.Priority, b.Trace, preds, proba)
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

// Close drains the batcher and retires the registry's snapshot (its
// device closes when the last in-flight batch releases).
func (l *LocalBackend) Close() {
	l.bat.Close()
	l.reg.Close()
}
