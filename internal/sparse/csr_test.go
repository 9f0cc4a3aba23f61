package sparse

import (
	"math"
	"math/rand"
	"testing"

	"newtonadmm/internal/device"
	"newtonadmm/internal/linalg"
)

func randSparseDense(rng *rand.Rand, rows, cols int, density float64) *linalg.Matrix {
	m := linalg.NewMatrix(rows, cols)
	for i := range m.Data {
		if rng.Float64() < density {
			m.Data[i] = rng.NormFloat64()
		}
	}
	return m
}

func matricesEqual(t *testing.T, a, b *linalg.Matrix, tol float64) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("shape mismatch %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	for i := range a.Data {
		if math.Abs(a.Data[i]-b.Data[i]) > tol {
			t.Fatalf("data mismatch at %d: %v vs %v", i, a.Data[i], b.Data[i])
		}
	}
}

func TestFromDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 20; trial++ {
		d := randSparseDense(rng, 1+rng.Intn(30), 1+rng.Intn(30), 0.2)
		c := FromDense(d)
		matricesEqual(t, c.ToDense(), d, 0)
	}
}

func TestFromCoordsDuplicatesSummed(t *testing.T) {
	m, err := FromCoords(2, 3, []Coord{
		{0, 1, 2.0}, {0, 1, 3.0}, {1, 0, -1}, {0, 2, 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.At(0, 1); got != 5 {
		t.Fatalf("duplicate entries not summed: At(0,1)=%v", got)
	}
	if got := m.At(1, 0); got != -1 {
		t.Fatalf("At(1,0)=%v", got)
	}
	if got := m.At(1, 2); got != 0 {
		t.Fatalf("missing entry should be 0, got %v", got)
	}
	if m.NNZ() != 3 {
		t.Fatalf("NNZ=%d, want 3", m.NNZ())
	}
}

func TestFromCoordsOutOfRange(t *testing.T) {
	if _, err := FromCoords(2, 2, []Coord{{2, 0, 1}}); err == nil {
		t.Fatal("expected error for out-of-range row")
	}
	if _, err := FromCoords(2, 2, []Coord{{0, -1, 1}}); err == nil {
		t.Fatal("expected error for negative col")
	}
}

func TestFromCoordsEmpty(t *testing.T) {
	m, err := FromCoords(3, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 0 || m.NumRows != 3 || m.NumCols != 4 {
		t.Fatalf("empty matrix wrong: %+v", m)
	}
	// RowPtr must still be well-formed.
	if len(m.RowPtr) != 4 || m.RowPtr[3] != 0 {
		t.Fatalf("RowPtr malformed: %v", m.RowPtr)
	}
}

func TestMulNTMatchesDense(t *testing.T) {
	dev := device.New("test", 4)
	defer dev.Close()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 15; trial++ {
		n, p, m := 1+rng.Intn(50), 1+rng.Intn(40), 1+rng.Intn(6)
		dense := randSparseDense(rng, n, p, 0.15)
		csr := FromDense(dense)
		b := make([]float64, m*p)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		got := make([]float64, n*m)
		csr.MulNT(dev, transpose(b, m, p), m, got)
		want := make([]float64, n*m)
		linalg.MulNT(dense, b, m, want)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-10 {
				t.Fatalf("MulNT mismatch at %d: %v vs %v", i, got[i], want[i])
			}
		}
	}
}

func TestMulTNMatchesDense(t *testing.T) {
	dev := device.New("test", 4)
	defer dev.Close()
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 15; trial++ {
		n, p, m := 1+rng.Intn(50), 1+rng.Intn(40), 1+rng.Intn(6)
		dense := randSparseDense(rng, n, p, 0.15)
		csr := FromDense(dense)
		d := make([]float64, n*m)
		for i := range d {
			d[i] = rng.NormFloat64()
		}
		got := make([]float64, m*p)
		csr.MulTN(dev, d, m, got)
		got = transpose(got, p, m)
		want := make([]float64, m*p)
		linalg.MulTN(dense, d, m, want)
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-9 {
				t.Fatalf("MulTN mismatch at %d: %v vs %v", i, got[i], want[i])
			}
		}
	}
}

func TestRowSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	dense := randSparseDense(rng, 20, 10, 0.3)
	csr := FromDense(dense)
	idx := []int{3, 3, 19, 0}
	sub := csr.RowSubset(idx)
	subDense := dense.RowSubset(idx)
	matricesEqual(t, sub.ToDense(), subDense, 0)
}

func TestRowRangeIsAView(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	dense := randSparseDense(rng, 12, 10, 0.3)
	csr := FromDense(dense)
	for lo := 0; lo <= csr.NumRows; lo++ {
		for hi := lo; hi <= csr.NumRows; hi++ {
			view := csr.RowRange(lo, hi)
			matricesEqual(t, view.ToDense(), dense.RowRange(lo, hi), 0)
			if view.NNZ() > 0 && &view.Val[0] != &csr.Val[csr.RowPtr[lo]] {
				t.Fatalf("RowRange(%d, %d) copied its values", lo, hi)
			}
		}
	}
}

func TestAtBinarySearch(t *testing.T) {
	m, err := FromCoords(1, 100, []Coord{{0, 5, 1}, {0, 50, 2}, {0, 99, 3}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[int]float64{0: 0, 5: 1, 49: 0, 50: 2, 99: 3}
	for j, want := range cases {
		if got := m.At(0, j); got != want {
			t.Fatalf("At(0,%d)=%v, want %v", j, got, want)
		}
	}
}

func TestMulDimensionPanics(t *testing.T) {
	dev := device.New("test", 1)
	defer dev.Close()
	m, _ := FromCoords(2, 3, nil)
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("MulNT bad B", func() { m.MulNT(dev, make([]float64, 2), 1, make([]float64, 2)) })
	mustPanic("MulNT bad S", func() { m.MulNT(dev, make([]float64, 3), 1, make([]float64, 5)) })
	mustPanic("MulTN bad D", func() { m.MulTN(dev, make([]float64, 5), 1, make([]float64, 3)) })
	mustPanic("MulTN bad G", func() { m.MulTN(dev, make([]float64, 2), 1, make([]float64, 5)) })
}
