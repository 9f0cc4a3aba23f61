package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry is the unified metrics surface: both tiers register their
// counters, gauges, and histograms here and /metricz renders them
// through one code path, in one Prometheus-style text exposition, under
// the canonical nadmm_* names documented in DESIGN.md "Observability".
//
// Most rows are registered at construction time; families whose label
// sets change at runtime (the per-replica rows of an autoscaled pool)
// register a Collect callback instead. Rendering reads atomics and
// snapshot closures, so a scrape never blocks a request.
type Registry struct {
	mu   sync.Mutex
	rows []row
}

type rowKind uint8

const (
	kindCounter rowKind = iota
	kindGauge
	kindDuration
	kindCollect
)

type row struct {
	name   string
	labels string // pre-rendered `k="v",k2="v2"`, may be empty
	help   string
	kind   rowKind
	cfn    func() uint64  // kindCounter
	gfn    func() float64 // kindGauge
	hist   *Histogram
	colfn  func(io.Writer) // kindCollect
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// Label renders one static label pair for the labels argument of the
// register calls; join several with commas.
func Label(k, v string) string { return k + `="` + v + `"` }

// Counter is a monotonically increasing atomic counter owned by the
// registry caller.
type Counter struct{ v atomic.Uint64 }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable float gauge.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value reads the gauge.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func (r *Registry) add(rw row) {
	r.mu.Lock()
	r.rows = append(r.rows, rw)
	r.mu.Unlock()
}

// Counter registers and returns an owned counter.
func (r *Registry) Counter(name, labels, help string) *Counter {
	c := &Counter{}
	r.CounterFunc(name, labels, help, c.Value)
	return c
}

// CounterFunc registers a counter whose value is read at scrape time
// (the idiom for counters that already live in a subsystem's atomics).
func (r *Registry) CounterFunc(name, labels, help string, fn func() uint64) {
	r.add(row{name: name, labels: labels, help: help, kind: kindCounter, cfn: fn})
}

// Gauge registers and returns an owned gauge.
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	g := &Gauge{}
	r.GaugeFunc(name, labels, help, g.Value)
	return g
}

// GaugeFunc registers a gauge computed at scrape time.
func (r *Registry) GaugeFunc(name, labels, help string, fn func() float64) {
	r.add(row{name: name, labels: labels, help: help, kind: kindGauge, gfn: fn})
}

// Duration registers a latency histogram rendered by WriteSummary as the
// rows name_count and name_{mean,p50,p95,p99,max}_seconds.
func (r *Registry) Duration(name, labels, help string, h *Histogram) {
	r.add(row{name: name, labels: labels, help: help, kind: kindDuration, hist: h})
}

// Collect registers a scrape-time collector: fn writes fully formed
// exposition lines (including any HELP/TYPE comments it wants) into
// the scrape at this position. It exists for metric families whose
// label set changes at runtime — the per-replica rows of an autoscaled
// pool — where construction-time registration would freeze a stale
// membership.
func (r *Registry) Collect(fn func(io.Writer)) {
	r.add(row{kind: kindCollect, colfn: fn})
}

// FindDuration returns the first histogram registered under name (any
// labels); control loops use it to window a tier's latency signal
// without holding a second reference path to the histogram.
func (r *Registry) FindDuration(name string) (*Histogram, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.rows {
		if r.rows[i].kind == kindDuration && r.rows[i].name == name {
			return r.rows[i].hist, true
		}
	}
	return nil, false
}

// WriteText renders the exposition: HELP/TYPE comments once per metric
// family (first registration wins), then one line per row in
// registration order.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	rows := r.rows
	r.mu.Unlock()

	seen := make(map[string]bool, len(rows))
	for i := range rows {
		rw := &rows[i]
		if rw.kind == kindCollect {
			rw.colfn(w)
			continue
		}
		if !seen[rw.name] {
			seen[rw.name] = true
			if rw.help != "" {
				fmt.Fprintf(w, "# HELP %s %s\n", rw.name, rw.help)
			}
			switch rw.kind {
			case kindCounter:
				fmt.Fprintf(w, "# TYPE %s counter\n", rw.name)
			case kindGauge:
				fmt.Fprintf(w, "# TYPE %s gauge\n", rw.name)
			}
		}
		switch rw.kind {
		case kindCounter:
			fmt.Fprintf(w, "%s %d\n", withLabels(rw.name, rw.labels), rw.cfn())
		case kindGauge:
			fmt.Fprintf(w, "%s %s\n", withLabels(rw.name, rw.labels), FormatFloat(rw.gfn()))
		case kindDuration:
			WriteSummary(w, rw.name, rw.labels, rw.hist)
		}
	}
}

func withLabels(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// FormatFloat renders integral gauges without a decimal tail so greps
// like `nadmm_model_version 1` stay stable; collectors that write their
// own gauge rows use it too.
func FormatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', 9, 64)
}
