package harness

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"testing"

	"newtonadmm/internal/ckpt"
	"newtonadmm/internal/datasets"
	"newtonadmm/internal/dist"
)

// ciConfig is the size every claim's recorded outcome is asserted at.
var ciConfig = RunConfig{Quick: true}

// ciMaxFeatures cuts E18's feature space, the one cost no RunConfig
// scales, to CIFAR-10's width in experiments that train; the other
// presets are no wider.
const ciMaxFeatures = 256

// ciExperiments is the table at the CI size.
func ciExperiments() []Experiment {
	exps := Experiments()
	for i := range exps {
		if len(exps[i].Arms) == 0 {
			continue // nothing trains: the presets are what is checked
		}
		exps[i].Sweeps = slices.Clone(exps[i].Sweeps)
		for j := range exps[i].Sweeps {
			s := &exps[i].Sweeps[j]
			s.Presets = slices.Clone(s.Presets)
			for k, pre := range s.Presets {
				s.Presets[k] = func(scale float64) datasets.Config {
					c := pre(scale)
					c.Features = min(c.Features, ciMaxFeatures)
					return c
				}
			}
		}
	}
	return exps
}

// TestExperimentClaims runs the whole table at the CI size and asserts
// each claim's recorded outcome: it holds, or it fails as the experiment's
// Finding says. It also asserts what holds by theorem on every run: GIANT
// and single-node Newton never accept a step that raises the objective.
func TestExperimentClaims(t *testing.T) {
	outs, err := Run(ciConfig, io.Discard, ciExperiments())
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range outs {
		t.Run(o.Experiment.ID, func(t *testing.T) {
			if want := o.Experiment.Claim.Finding == ""; o.Holds != want {
				t.Errorf("claim %q: holds=%v, recorded finding %q: %s", o.Experiment.Claim.Text, o.Holds, o.Experiment.Claim.Finding, o.Detail)
			}
			for _, p := range o.Points {
				for _, r := range p.Runs {
					if tr := &r.Trace; tr.Solver == "giant" || tr.Solver == "newton" {
						assertMonotone(t, tr)
					}
				}
			}
		})
	}
}

func assertMonotone(t *testing.T, tr *dist.Trace) {
	t.Helper()
	for i := 1; i < len(tr.Points); i++ {
		if prev, p := tr.Points[i-1].Objective, tr.Points[i].Objective; p > prev+1e-9 {
			t.Errorf("%s on %s: objective rose at epoch %d: %v -> %v", tr.Solver, tr.Dataset, tr.Points[i].Epoch, prev, p)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	// Every paper artifact must be in the table.
	want := []string{
		"table1", "fig1", "fig2", "fig3", "fig4", "fig5",
		"ablation-penalty", "ablation-network", "ablation-inexact",
		"extra-disco", "extra-jacobi",
	}
	for _, id := range want {
		if _, ok := ByID(id); !ok {
			t.Fatalf("experiment %q not registered", id)
		}
	}
	if len(Experiments()) != len(want) {
		t.Fatalf("registry has %d entries, want %d", len(Experiments()), len(want))
	}
	for _, e := range Experiments() {
		if e.Title == "" || e.Paper == "" || e.Header == "" || len(e.Sweeps) == 0 || e.Claim.Text == "" || e.Claim.Check == nil {
			t.Fatalf("experiment %q incompletely described", e.ID)
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, ok := ByID("fig99"); ok {
		t.Fatal("unknown id resolved")
	}
}

func TestTableRender(t *testing.T) {
	tab := NewTable("demo", "a", "bee", "c")
	tab.Add(1, 2.5, "x")
	tab.Add("long-cell", 3.14159, "y")
	var buf bytes.Buffer
	if err := tab.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("unexpected table layout:\n%s", out)
	}
	if !strings.Contains(out, "long-cell") || !strings.Contains(out, "3.142") {
		t.Fatalf("cells not rendered:\n%s", out)
	}
}

func TestSampleTracePoints(t *testing.T) {
	tr := &dist.Trace{}
	for i := 0; i < 100; i++ {
		tr.Append(ckpt.TracePoint{Epoch: i})
	}
	thin := sampleTracePoints(tr, 10)
	if len(thin.Points) != 10 {
		t.Fatalf("thinned to %d points", len(thin.Points))
	}
	if thin.Points[0].Epoch != 0 || thin.Points[9].Epoch != 99 {
		t.Fatal("endpoints not preserved")
	}
	// Short traces pass through.
	short := &dist.Trace{Points: tr.Points[:5]}
	if got := sampleTracePoints(short, 10); len(got.Points) != 5 {
		t.Fatal("short trace was modified")
	}
}

func TestFormatDuration(t *testing.T) {
	if got := formatDuration(1500 * 1000 * 1000); !strings.Contains(got, "s") {
		t.Fatalf("formatDuration(1.5s)=%q", got)
	}
}
