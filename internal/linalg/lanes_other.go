//go:build !amd64

package linalg

// lanesSupported is false off amd64: the Go loops run.
const lanesSupported = false

func scores8(a *float64, lda int, w *float64, ldw int, p int, s *float64, lds int) {
	panic("linalg: no lanes on this architecture")
}

func scores4(a *float64, lda int, w *float64, ldw int, p int, s *float64, lds int, mask *[4]int64) {
	panic("linalg: no lanes on this architecture")
}

func accum8(a *float64, lda int, d *float64, ldd int, p int, gt *float64, ldg int) {
	panic("linalg: no lanes on this architecture")
}

func accum4(a *float64, lda int, d *float64, ldd int, p int, gt *float64, ldg int, mask *[4]int64) {
	panic("linalg: no lanes on this architecture")
}
