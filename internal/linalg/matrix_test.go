package linalg

import (
	"math/rand"
	"testing"
)

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// naiveMulNT computes S = A*B^T with triple loops, as the oracle.
func naiveMulNT(a *Matrix, b []float64, m int) []float64 {
	s := make([]float64, a.Rows*m)
	for i := 0; i < a.Rows; i++ {
		for c := 0; c < m; c++ {
			var acc float64
			for j := 0; j < a.Cols; j++ {
				acc += a.At(i, j) * b[c*a.Cols+j]
			}
			s[i*m+c] = acc
		}
	}
	return s
}

// naiveMulTN computes G = D^T*A with triple loops, as the oracle.
func naiveMulTN(a *Matrix, d []float64, m int) []float64 {
	g := make([]float64, m*a.Cols)
	for c := 0; c < m; c++ {
		for j := 0; j < a.Cols; j++ {
			var acc float64
			for i := 0; i < a.Rows; i++ {
				acc += d[i*m+c] * a.At(i, j)
			}
			g[c*a.Cols+j] = acc
		}
	}
	return g
}

func TestMulNTAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n, p, m := 1+rng.Intn(20), 1+rng.Intn(15), 1+rng.Intn(8)
		a := randMatrix(rng, n, p)
		b := randVec(rng, m*p)
		s := make([]float64, n*m)
		MulNT(a, b, m, s)
		want := naiveMulNT(a, b, m)
		for i := range want {
			if !almostEqual(s[i], want[i], 1e-10) {
				t.Fatalf("trial %d: MulNT[%d]=%v, want %v", trial, i, s[i], want[i])
			}
		}
	}
}

func TestMulTNAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 30; trial++ {
		n, p, m := 1+rng.Intn(20), 1+rng.Intn(15), 1+rng.Intn(8)
		a := randMatrix(rng, n, p)
		d := randVec(rng, n*m)
		g := make([]float64, m*p)
		MulTN(a, d, m, g)
		want := naiveMulTN(a, d, m)
		for i := range want {
			if !almostEqual(g[i], want[i], 1e-10) {
				t.Fatalf("trial %d: MulTN[%d]=%v, want %v", trial, i, g[i], want[i])
			}
		}
	}
}

func TestMulRangePartition(t *testing.T) {
	// Computing over [0,k) and [k,n) must equal computing over [0,n).
	rng := rand.New(rand.NewSource(5))
	n, p, m := 17, 9, 4
	a := randMatrix(rng, n, p)
	b := randVec(rng, m*p)
	whole := make([]float64, n*m)
	a.MulNTRange(b, m, whole, 0, n)
	split := make([]float64, n*m)
	a.MulNTRange(b, m, split, 0, 7)
	a.MulNTRange(b, m, split, 7, n)
	for i := range whole {
		if whole[i] != split[i] {
			t.Fatalf("partitioned MulNTRange differs at %d", i)
		}
	}

	d := randVec(rng, n*m)
	gWhole := make([]float64, m*p)
	a.MulTNRange(d, m, gWhole, 0, n)
	g1 := make([]float64, m*p)
	g2 := make([]float64, m*p)
	a.MulTNRange(d, m, g1, 0, 7)
	a.MulTNRange(d, m, g2, 7, n)
	for i := range gWhole {
		if !almostEqual(gWhole[i], g1[i]+g2[i], 1e-12) {
			t.Fatalf("partitioned MulTNRange differs at %d", i)
		}
	}
}

func TestRowSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randMatrix(rng, 10, 3)
	sub := a.RowSubset([]int{7, 0, 7})
	if sub.Rows != 3 || sub.Cols != 3 {
		t.Fatalf("RowSubset shape %dx%d", sub.Rows, sub.Cols)
	}
	for j := 0; j < 3; j++ {
		if sub.At(0, j) != a.At(7, j) || sub.At(1, j) != a.At(0, j) || sub.At(2, j) != a.At(7, j) {
			t.Fatal("RowSubset content mismatch")
		}
	}
	// Mutating the subset must not touch the original.
	sub.Set(0, 0, 1234)
	if a.At(7, 0) == 1234 {
		t.Fatal("RowSubset aliases parent data")
	}
}

func TestRowRangeIsAView(t *testing.T) {
	a := randMatrix(rand.New(rand.NewSource(7)), 10, 3)
	v := a.RowRange(4, 7)
	if v.Rows != 3 || v.Cols != 3 || v.At(2, 1) != a.At(6, 1) {
		t.Fatalf("RowRange(4, 7) is %dx%d with (2,1) = %v, want 3x3 with %v", v.Rows, v.Cols, v.At(2, 1), a.At(6, 1))
	}
	v.Set(0, 0, 1234)
	if a.At(4, 0) != 1234 {
		t.Fatal("RowRange copied the parent's data")
	}
}

func TestMatrixAccessors(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("Set/At mismatch")
	}
	r := m.Row(1)
	if len(r) != 3 || r[2] != 5 {
		t.Fatal("Row view mismatch")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatal("Clone aliases data")
	}
}

func TestNewMatrixFromValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bad data length")
		}
	}()
	NewMatrixFrom(2, 2, []float64{1, 2, 3})
}
