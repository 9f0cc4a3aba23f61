//go:build !amd64

package sparse

// Off amd64 lanes is false (linalg.LanesSupported), so these never run.

func csrDot(cols *int, vals *float64, nnz int, w *float64, s *float64, ld int, p int, full int, mask *[4]int64) bool {
	panic("sparse: no lanes on this architecture")
}

func csrAxpy(cols *int, vals *float64, nnz int, gt *float64, d *float64, ld int, p int, full int, mask *[4]int64) bool {
	panic("sparse: no lanes on this architecture")
}
