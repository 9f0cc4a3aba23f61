package datasets

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"newtonadmm/internal/device"
	"newtonadmm/internal/linalg"
	"newtonadmm/internal/loss"
)

var testDev = device.New("datasets-test", 2)

func TestGenerateShapes(t *testing.T) {
	d, err := Generate(Config{
		Name: "t", Samples: 100, TestSamples: 20, Features: 7, Classes: 3, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.TrainSize() != 100 || d.TestSize() != 20 || d.NumFeatures() != 7 {
		t.Fatalf("shapes: train=%d test=%d p=%d", d.TrainSize(), d.TestSize(), d.NumFeatures())
	}
	if d.Dim() != 2*7 {
		t.Fatalf("Dim=%d, want 14", d.Dim())
	}
	if len(d.Ytrain) != 100 || len(d.Ytest) != 20 {
		t.Fatal("label lengths")
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Samples: 10, Features: 2, Classes: 1}); err == nil {
		t.Fatal("classes=1 accepted")
	}
	if _, err := Generate(Config{Samples: 0, Features: 2, Classes: 2}); err == nil {
		t.Fatal("samples=0 accepted")
	}
	if _, err := Generate(Config{Samples: 10, Features: 2, Classes: 2, Sparsity: 1.5}); err == nil {
		t.Fatal("sparsity>1 accepted")
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Name: "t", Samples: 50, Features: 5, Classes: 4, Seed: 42}
	a, _ := Generate(cfg)
	b, _ := Generate(cfg)
	for i := range a.Ytrain {
		if a.Ytrain[i] != b.Ytrain[i] {
			t.Fatal("labels differ across identical seeds")
		}
	}
	am := a.Xtrain.(loss.Dense).M
	bm := b.Xtrain.(loss.Dense).M
	for i := range am.Data {
		if am.Data[i] != bm.Data[i] {
			t.Fatal("features differ across identical seeds")
		}
	}
	c, _ := Generate(Config{Name: "t", Samples: 50, Features: 5, Classes: 4, Seed: 43})
	cm := c.Xtrain.(loss.Dense).M
	same := true
	for i := range am.Data {
		if am.Data[i] != cm.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical data")
	}
}

func TestGenerateAllClassesPresent(t *testing.T) {
	d, err := Generate(Config{Name: "t", Samples: 2000, Features: 10, Classes: 5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	h := ClassHistogram(d.Ytrain, 5)
	for c, cnt := range h {
		if cnt == 0 {
			t.Fatalf("class %d absent: %v", c, h)
		}
	}
}

func TestGenerateSparse(t *testing.T) {
	d, err := Generate(Config{
		Name: "t", Samples: 200, TestSamples: 40, Features: 100, Classes: 3,
		Seed: 9, Sparsity: 0.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sp, ok := d.Xtrain.(loss.Sparse)
	if !ok {
		t.Fatal("expected sparse features")
	}
	density := float64(sp.M.NNZ()) / float64(200*100)
	if density < 0.05 || density > 0.2 {
		t.Fatalf("density %v far from requested 0.1", density)
	}
}

func TestGeneratedProblemIsLearnable(t *testing.T) {
	// A planted model must be learnable well above chance by its own
	// softmax objective — the property every experiment relies on.
	d, err := Generate(Config{
		Name: "t", Samples: 1500, TestSamples: 400, Features: 20, Classes: 3,
		Seed: 11, Separation: 4, Noise: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	prob, err := loss.NewSoftmax(testDev, d.Xtrain, d.Ytrain, d.Classes, 1e-4)
	if err != nil {
		t.Fatal(err)
	}
	// A few crude gradient-descent steps are enough to beat chance.
	w := make([]float64, prob.Dim())
	g := make([]float64, prob.Dim())
	for it := 0; it < 60; it++ {
		prob.Gradient(w, g)
		linalg.Axpy(-0.5/float64(prob.N()), g, w)
	}
	acc := prob.Accuracy(d.Xtest, d.Ytest, loss.ToModel(nil, w, d.Classes-1))
	if acc < 0.55 { // chance is 1/3
		t.Fatalf("test accuracy %v barely above chance", acc)
	}
}

func TestDecayControlsConditioning(t *testing.T) {
	// Higher Decay concentrates feature variance in early coordinates;
	// verify via the ratio of first/last column second moments.
	mk := func(decay float64) *linalg.Matrix {
		d, err := Generate(Config{Name: "t", Samples: 400, Features: 30, Classes: 2, Seed: 5, Decay: decay})
		if err != nil {
			t.Fatal(err)
		}
		return d.Xtrain.(loss.Dense).M
	}
	colVar := func(m *linalg.Matrix, j int) float64 {
		var ssq float64
		for i := 0; i < m.Rows; i++ {
			v := m.At(i, j)
			ssq += v * v
		}
		return ssq / float64(m.Rows)
	}
	flat := mk(0)
	steep := mk(1.5)
	flatRatio := colVar(flat, 0) / colVar(flat, 29)
	steepRatio := colVar(steep, 0) / colVar(steep, 29)
	if steepRatio < 50*flatRatio {
		t.Fatalf("decay did not steepen spectrum: flat=%v steep=%v", flatRatio, steepRatio)
	}
}

func TestShardPartition(t *testing.T) {
	n, ranks := 103, 4
	seen := make([]bool, n)
	for r := 0; r < ranks; r++ {
		for _, i := range Shard(n, ranks, r) {
			if seen[i] {
				t.Fatalf("index %d in two shards", i)
			}
			seen[i] = true
		}
	}
	for i, s := range seen {
		if !s {
			t.Fatalf("index %d unassigned", i)
		}
	}
	// Shards are balanced within 1.
	min, max := n, 0
	for r := 0; r < ranks; r++ {
		l := len(Shard(n, ranks, r))
		if l < min {
			min = l
		}
		if l > max {
			max = l
		}
	}
	if max-min > 1 {
		t.Fatalf("imbalanced shards: min=%d max=%d", min, max)
	}
}

func TestPresetsMatchTable1Character(t *testing.T) {
	cases := []struct {
		cfg      Config
		classes  int
		features int
		sparse   bool
	}{
		{HiggsLike(0.01), 2, 28, false},
		{MNISTLike(0.01), 10, 784, false},
		{CIFARLike(0.01), 10, 3072, false},
		{E18Like(0.01), 20, 27998, true},
	}
	for _, c := range cases {
		if c.cfg.Classes != c.classes || c.cfg.Features != c.features {
			t.Fatalf("%s: classes=%d features=%d", c.cfg.Name, c.cfg.Classes, c.cfg.Features)
		}
		if (c.cfg.Sparsity > 0) != c.sparse {
			t.Fatalf("%s: sparsity=%v", c.cfg.Name, c.cfg.Sparsity)
		}
	}
}

func TestPresetByName(t *testing.T) {
	for _, name := range []string{"higgs", "mnist", "cifar", "e18", "mnist-like"} {
		if _, ok := PresetByName(name, 1); !ok {
			t.Fatalf("preset %q not found", name)
		}
	}
	if _, ok := PresetByName("imagenet", 1); ok {
		t.Fatal("unknown preset resolved")
	}
}

func TestLIBSVMRoundTrip(t *testing.T) {
	d, err := Generate(Config{
		Name: "t", Samples: 30, Features: 12, Classes: 3, Seed: 77, Sparsity: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteLIBSVM(&buf, d.Xtrain, d.Ytrain); err != nil {
		t.Fatal(err)
	}
	x2, y2, classes, err := ReadLIBSVM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if classes > 3 {
		t.Fatalf("classes=%d, want <=3", classes)
	}
	if x2.Rows() != 30 {
		t.Fatalf("rows=%d", x2.Rows())
	}
	// Labels were already 0..C-1 written as text and re-mapped in first
	// appearance order; check round-trip consistency sample-to-sample.
	first := map[int]int{}
	for i, orig := range d.Ytrain {
		if mapped, ok := first[orig]; ok {
			if y2[i] != mapped {
				t.Fatalf("label remap inconsistent at %d", i)
			}
		} else {
			first[orig] = y2[i]
		}
	}
	// Feature values must survive (columns may shrink if trailing
	// features were all-zero).
	orig := d.Xtrain.(loss.Sparse).M
	got := x2.(loss.Sparse).M
	for i := 0; i < 30; i++ {
		for k := orig.RowPtr[i]; k < orig.RowPtr[i+1]; k++ {
			j := orig.Col[k]
			if j >= got.NumCols {
				if orig.Val[k] != 0 {
					t.Fatalf("lost nonzero at (%d,%d)", i, j)
				}
				continue
			}
			if math.Abs(got.At(i, j)-orig.Val[k]) > 1e-12 {
				t.Fatalf("value mismatch at (%d,%d): %v vs %v", i, j, got.At(i, j), orig.Val[k])
			}
		}
	}
}

func TestReadLIBSVMErrors(t *testing.T) {
	if _, _, _, err := ReadLIBSVM(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, _, _, err := ReadLIBSVM(strings.NewReader("1 bogus")); err == nil {
		t.Fatal("malformed feature accepted")
	}
	if _, _, _, err := ReadLIBSVM(strings.NewReader("1 0:3.5")); err == nil {
		t.Fatal("0-based index accepted")
	}
	if _, _, _, err := ReadLIBSVM(strings.NewReader("1 2:xyz")); err == nil {
		t.Fatal("non-numeric value accepted")
	}
}

func TestReadLIBSVMSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n+1 1:2.0 3:1.5\n-1 2:0.5\n"
	x, y, classes, err := ReadLIBSVM(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows() != 2 || classes != 2 {
		t.Fatalf("rows=%d classes=%d", x.Rows(), classes)
	}
	if y[0] == y[1] {
		t.Fatal("labels collapsed")
	}
}

func TestSortedLabelSet(t *testing.T) {
	got := SortedLabelSet([]int{3, 1, 3, 0, 1})
	want := []int{0, 1, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}
