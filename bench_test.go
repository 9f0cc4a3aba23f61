package newtonadmm

// Micro-benchmarks of the numerical kernels the solvers spend their time
// in. The paper's tables and figures are regenerated by cmd/nadmm-bench
// and their claims asserted by internal/harness's tests; training and
// serving end to end are measured by bench/ (bench/README.md).

import (
	"math/rand"
	"testing"

	"newtonadmm/internal/cg"
	"newtonadmm/internal/cluster"
	"newtonadmm/internal/datasets"
	"newtonadmm/internal/device"
	"newtonadmm/internal/linalg"
	"newtonadmm/internal/loss"
	"newtonadmm/internal/sparse"
)

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

// BenchmarkSparseFusedGradientShard measures one fused CSR gradient (the
// Hessian-vector product of CG) at a train-sparse-tcp rank's shard shape:
// 750 x 27 998 at 2 %, 19 explicit classes, on a one-worker device. Its
// 4.3 MB weight operand does not fit in L2, unlike benchCSR's.
func BenchmarkSparseFusedGradientShard(b *testing.B) {
	dev := device.New("bench-shard", 1)
	b.Cleanup(dev.Close)
	rng := rand.New(rand.NewSource(12))
	n, p, m, density := 750, 27998, 19, 0.02
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
	g := make([]float64, m*p)
	fn := func(lo, hi int) float64 { return 0 }
	b.SetBytes(int64(8 * (csr.NNZ() + len(w) + len(s) + len(g))))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dev.FusedGradient(csr, w, m, s, fn, g)
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
