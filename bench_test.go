package newtonadmm

// Benchmarks regenerating every table and figure of the paper's evaluation
// (one testing.B target per artifact, backed by the experiment harness in
// internal/harness) plus micro-benchmarks of the numerical kernels the
// solvers spend their time in. The macro benches use quick-mode sizes so
// `go test -bench=.` finishes in minutes; `cmd/nadmm-bench` runs the
// full-scale versions. Serving is measured by bench/ (bench/README.md).

import (
	"io"
	"math/rand"
	"testing"

	"newtonadmm/internal/cg"
	"newtonadmm/internal/cluster"
	"newtonadmm/internal/datasets"
	"newtonadmm/internal/device"
	"newtonadmm/internal/harness"
	"newtonadmm/internal/linalg"
	"newtonadmm/internal/loss"
	"newtonadmm/internal/sparse"
)

func benchExperiment(b *testing.B, id string) {
	e, ok := harness.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	cfg := harness.RunConfig{Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Run(cfg, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1Datasets regenerates Table 1 (dataset description).
func BenchmarkTable1Datasets(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig1SecondOrderComparison regenerates Figure 1 (objective vs
// time for Newton-ADMM, GIANT, InexactDANE, AIDE on MNIST).
func BenchmarkFig1SecondOrderComparison(b *testing.B) { benchExperiment(b, "fig1") }

// BenchmarkFig2EpochTimeScaling regenerates Figure 2 (average epoch time,
// strong and weak scaling).
func BenchmarkFig2EpochTimeScaling(b *testing.B) { benchExperiment(b, "fig2") }

// BenchmarkFig3SpeedupScaling regenerates Figure 3 (GIANT/Newton-ADMM
// speedup ratio to theta < 0.05).
func BenchmarkFig3SpeedupScaling(b *testing.B) { benchExperiment(b, "fig3") }

// BenchmarkFig4VersusSGD regenerates Figure 4 (Newton-ADMM vs synchronous
// SGD, objective and accuracy vs time).
func BenchmarkFig4VersusSGD(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig5E18WeakScaling regenerates Figure 5 (E18 with 16 workers at
// two regularization strengths).
func BenchmarkFig5E18WeakScaling(b *testing.B) { benchExperiment(b, "fig5") }

// BenchmarkAblationPenaltyPolicy compares SPS / residual balancing /
// fixed-rho penalty policies (paper §2.2 claim).
func BenchmarkAblationPenaltyPolicy(b *testing.B) { benchExperiment(b, "ablation-penalty") }

// BenchmarkAblationNetwork re-times the solvers under InfiniBand / 10GbE /
// 1GbE / WAN models (paper §3 claim).
func BenchmarkAblationNetwork(b *testing.B) { benchExperiment(b, "ablation-network") }

// BenchmarkAblationCGInexactness sweeps the CG budget of single-node
// Newton (paper §2.1 claim).
func BenchmarkAblationCGInexactness(b *testing.B) { benchExperiment(b, "ablation-inexact") }

// ---- micro-benchmarks of the kernels the solvers live in ----

func benchProblem(b *testing.B, n, p, classes int) (*loss.Softmax, []float64) {
	b.Helper()
	ds, err := datasets.Generate(datasets.Config{
		Name: "bench", Samples: n, Features: p, Classes: classes, Seed: 9,
	})
	if err != nil {
		b.Fatal(err)
	}
	dev := device.New("bench", 0)
	b.Cleanup(dev.Close)
	prob, err := loss.NewSoftmax(dev, ds.Xtrain, ds.Ytrain, classes, 1e-5)
	if err != nil {
		b.Fatal(err)
	}
	w := make([]float64, prob.Dim())
	for i := range w {
		w[i] = 0.01 * float64(i%7)
	}
	return prob, w
}

// BenchmarkSoftmaxValue measures the fused score + log-sum-exp objective
// evaluation (one MulNTReduce launch; every line-search step pays this).
func BenchmarkSoftmaxValue(b *testing.B) {
	prob, w := benchProblem(b, 2000, 784, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prob.Value(w)
	}
}

// BenchmarkSoftmaxGradient measures the fused objective+gradient kernel
// (the dominant cost of every epoch) on an MNIST-shaped shard.
func BenchmarkSoftmaxGradient(b *testing.B) {
	prob, w := benchProblem(b, 2000, 784, 10)
	g := make([]float64, prob.Dim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prob.Gradient(w, g)
	}
}

// BenchmarkHessianVector measures one Hessian-vector product (the inner
// CG cost) on an MNIST-shaped shard.
func BenchmarkHessianVector(b *testing.B) {
	prob, w := benchProblem(b, 2000, 784, 10)
	h := prob.HessianAt(w)
	v := make([]float64, prob.Dim())
	hv := make([]float64, prob.Dim())
	for i := range v {
		v[i] = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Apply(v, hv)
	}
}

// BenchmarkCGNewtonDirection measures a full 10-iteration CG solve for
// the Newton direction.
func BenchmarkCGNewtonDirection(b *testing.B) {
	prob, w := benchProblem(b, 1000, 256, 10)
	g := make([]float64, prob.Dim())
	prob.Gradient(w, g)
	h := prob.HessianAt(w)
	p := make([]float64, prob.Dim())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cg.NewtonDirection(h, g, p, cg.Options{MaxIters: 10, RelTol: 1e-4})
	}
}

// BenchmarkDeviceMulNT measures the raw score-matrix kernel.
func BenchmarkDeviceMulNT(b *testing.B) {
	dev := device.New("bench", 0)
	defer dev.Close()
	n, p, m := 4000, 784, 9
	a := linalg.NewMatrix(n, p)
	for i := range a.Data {
		a.Data[i] = float64(i % 13)
	}
	w := make([]float64, m*p)
	s := make([]float64, n*m)
	b.SetBytes(int64(8 * (n*p + m*p + n*m)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.MulNT(a, w, m, s)
	}
}

// benchCSR builds an E18-flavoured sparse operand set: many features,
// low density.
func benchCSR(b *testing.B) (*device.Device, *sparse.CSR, []float64, []float64, []float64, int) {
	b.Helper()
	dev := device.New("bench-sparse", 0)
	b.Cleanup(dev.Close)
	rng := rand.New(rand.NewSource(11))
	n, p, m, density := 4000, 5000, 9, 0.01
	var entries []sparse.Coord
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			if rng.Float64() < density {
				entries = append(entries, sparse.Coord{Row: i, Col: j, Val: rng.NormFloat64()})
			}
		}
	}
	csr, err := sparse.FromCoords(n, p, entries)
	if err != nil {
		b.Fatal(err)
	}
	w := make([]float64, m*p)
	for i := range w {
		w[i] = 0.01 * float64(i%11)
	}
	s := make([]float64, n*m)
	d := make([]float64, n*m)
	for i := range d {
		d[i] = 0.1 * float64(i%7)
	}
	return dev, csr, w, s, d, m
}

// BenchmarkSparseMulNT measures the raw CSR score-matrix kernel (the E18
// code path).
func BenchmarkSparseMulNT(b *testing.B) {
	dev, csr, w, s, _, m := benchCSR(b)
	b.SetBytes(int64(8 * (csr.NNZ() + len(w) + len(s))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csr.MulNT(dev, w, m, s)
	}
}

// BenchmarkSparseMulTN measures the raw CSR gradient-accumulation kernel.
func BenchmarkSparseMulTN(b *testing.B) {
	dev, csr, _, _, d, m := benchCSR(b)
	g := make([]float64, m*csr.NumCols)
	b.SetBytes(int64(8 * (csr.NNZ() + len(d) + len(g))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csr.MulTN(dev, d, m, g)
	}
}

// BenchmarkAllReduce measures the collective the first-order baseline
// performs every mini-batch (in-process transport, 8 ranks).
func BenchmarkAllReduce(b *testing.B) {
	dim := 7056 // MNIST-shaped parameter vector
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := cluster.Run(cluster.Config{Ranks: 8, Network: cluster.ZeroCost, DeviceWorkers: 1},
			func(node *cluster.Node) error {
				vec := make([]float64, dim)
				for k := 0; k < 10; k++ {
					node.AllReduceSum(vec)
				}
				return nil
			})
		if err != nil {
			b.Fatal(err)
		}
	}
}
