package wire

import (
	"math/rand"
	"testing"
)

// benchFrame builds a 16-row mixed batch with 784-feature dense rows —
// the MNIST-shaped regime bench/'s serving workloads measure.
func benchFrame(b *testing.B) (*Encoder, []byte, [][]float64, [][]int, [][]float64) {
	rng := rand.New(rand.NewSource(1))
	const rows, features = 16, 784
	dense := make([][]float64, rows/2)
	for i := range dense {
		dense[i] = make([]float64, features)
		for j := range dense[i] {
			dense[i][j] = rng.NormFloat64()
		}
	}
	idx := make([][]int, rows/2)
	val := make([][]float64, rows/2)
	for i := range idx {
		for j := 0; j < features; j += 7 {
			idx[i] = append(idx[i], j)
			val[i] = append(val[i], rng.NormFloat64())
		}
	}
	var e Encoder
	e.Begin(OpPredict, 1)
	e.BatchHeader(rows, features, 0)
	for i := range dense {
		e.DenseRow(dense[i])
		e.SparseRow(idx[i], val[i])
	}
	frame := append([]byte(nil), e.Bytes()...)
	return &e, frame, dense, idx, val
}

// BenchmarkBatchEncode measures one batch-request frame build (16 mixed
// rows, 784 features). Steady state is zero-alloc.
func BenchmarkBatchEncode(b *testing.B) {
	e, frame, dense, idx, val := benchFrame(b)
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.Begin(OpPredict, uint64(n))
		e.BatchHeader(16, 784, 0)
		for i := range dense {
			e.DenseRow(dense[i])
			e.SparseRow(idx[i], val[i])
		}
		e.Bytes()
	}
}

// BenchmarkBatchDecode measures the matching decode into reusable
// staging. Steady state is zero-alloc.
func BenchmarkBatchDecode(b *testing.B) {
	_, frame, _, _, _ := benchFrame(b)
	payload := frame[HeaderSize:]
	var batch Batch
	if err := batch.Decode(payload); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if err := batch.Decode(payload); err != nil {
			b.Fatal(err)
		}
	}
}
