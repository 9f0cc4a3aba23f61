package harness

import (
	"fmt"
	"io"
	"strings"
	"time"

	"newtonadmm/internal/dist"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a titled table.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// Add appends one row (cells are stringified with %v).
func (t *Table) Add(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			row[i] = fmt.Sprintf("%.4g", v)
		case time.Duration:
			row[i] = formatDuration(v)
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.Rows = append(t.Rows, row)
}

// Render writes the table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	b.WriteByte('\n')
	_, err := io.WriteString(w, b.String())
	return err
}

// formatDuration renders durations at millisecond-ish precision.
func formatDuration(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
}

// WriteTrace renders a convergence trace as a (time, objective, accuracy)
// series, the text equivalent of the paper's line plots.
func WriteTrace(w io.Writer, tr *dist.Trace) error {
	tab := NewTable(
		fmt.Sprintf("series: %s on %s", tr.Solver, tr.Dataset),
		"epoch", "time", "objective", "test-acc",
	)
	for _, p := range tr.Points {
		acc := "-"
		if p.TestAccuracy == p.TestAccuracy { // not NaN
			acc = fmt.Sprintf("%.4f", p.TestAccuracy)
		}
		tab.Add(p.Epoch, p.Time, p.Objective, acc)
	}
	return tab.Render(w)
}

// sampleTracePoints thins a trace to at most k points for compact output,
// always keeping the first and last.
func sampleTracePoints(tr *dist.Trace, k int) *dist.Trace {
	n := len(tr.Points)
	if n <= k || k < 2 {
		return tr
	}
	out := &dist.Trace{Solver: tr.Solver, Dataset: tr.Dataset}
	for i := 0; i < k-1; i++ {
		out.Points = append(out.Points, tr.Points[i*(n-1)/(k-1)])
	}
	out.Points = append(out.Points, tr.Points[n-1])
	return out
}

// block renders one part of an experiment's output from its points.
type block func(w io.Writer, e *Experiment, pts []*Point) error

// tables renders the experiment's columns: one table per sweep title, in
// order of first appearance, with a row per point or per run.
func tables(w io.Writer, e *Experiment, pts []*Point) error {
	var order []*Table
	byTitle := map[string]*Table{}
	for _, p := range pts {
		t := byTitle[p.table]
		if t == nil {
			t = &Table{Title: p.table}
			for _, c := range e.Columns {
				t.Headers = append(t.Headers, c.Header)
			}
			byTitle[p.table] = t
			order = append(order, t)
		}
		rows := p.Runs
		if e.ByPoint {
			rows = []*Result{nil}
		}
		for _, r := range rows {
			cells := make([]any, len(e.Columns))
			for i, c := range e.Columns {
				cells[i] = c.Cell(p, r)
			}
			t.Add(cells...)
		}
	}
	for _, t := range order {
		if err := t.Render(w); err != nil {
			return err
		}
	}
	return nil
}

// series renders every run's trace, thinned to k points.
func series(k int) block {
	return func(w io.Writer, _ *Experiment, pts []*Point) error {
		for _, p := range pts {
			for _, r := range p.Runs {
				if err := WriteTrace(w, sampleTracePoints(&r.Trace, k)); err != nil {
					return err
				}
			}
		}
		return nil
	}
}
