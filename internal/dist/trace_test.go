package dist

import (
	"testing"
	"time"

	"newtonadmm/internal/ckpt"
)

func sampleTrace() *Trace {
	return &Trace{
		Solver:  "s",
		Dataset: "d",
		Points: []ckpt.TracePoint{
			{Epoch: 0, Time: 0, Objective: 10},
			{Epoch: 1, Time: time.Second, Objective: 5},
			{Epoch: 2, Time: 2 * time.Second, Objective: 2},
			{Epoch: 3, Time: 3 * time.Second, Objective: 1.1},
		},
	}
}

func TestFinal(t *testing.T) {
	tr := sampleTrace()
	p, ok := tr.Final()
	if !ok || p.Epoch != 3 {
		t.Fatalf("Final=%+v ok=%v", p, ok)
	}
	var empty Trace
	if _, ok := empty.Final(); ok {
		t.Fatal("empty trace returned a final point")
	}
}

func TestBestObjective(t *testing.T) {
	tr := sampleTrace()
	tr.Append(ckpt.TracePoint{Epoch: 4, Time: 4 * time.Second, Objective: 1.5}) // worse than best
	if got := tr.BestObjective(); got != 1.1 {
		t.Fatalf("BestObjective=%v", got)
	}
}

func TestTimeToObjective(t *testing.T) {
	tr := sampleTrace()
	d, ok := tr.TimeToObjective(5)
	if !ok || d != time.Second {
		t.Fatalf("TimeToObjective(5)=%v ok=%v", d, ok)
	}
	d, ok = tr.TimeToObjective(4.9)
	if !ok || d != 2*time.Second {
		t.Fatalf("TimeToObjective(4.9)=%v ok=%v", d, ok)
	}
	if _, ok := tr.TimeToObjective(0.5); ok {
		t.Fatal("unreachable target reported reached")
	}
}

func TestEpochsToObjective(t *testing.T) {
	tr := sampleTrace()
	e, ok := tr.EpochsToObjective(2)
	if !ok || e != 2 {
		t.Fatalf("EpochsToObjective=%v ok=%v", e, ok)
	}
}

func TestAvgEpochTime(t *testing.T) {
	tr := sampleTrace()
	if got := tr.AvgEpochTime(); got != time.Second {
		t.Fatalf("AvgEpochTime=%v, want 1s", got)
	}
	var empty Trace
	if empty.AvgEpochTime() != 0 {
		t.Fatal("empty trace AvgEpochTime")
	}
}

func TestPointString(t *testing.T) {
	p := ckpt.TracePoint{Epoch: 2, Time: time.Second, Objective: 1.5, TestAccuracy: 0.9}
	if p.String() == "" {
		t.Fatal("empty String")
	}
}
