package sparse

//go:noescape
func csrDot(cols *int, vals *float64, nnz int, w *float64, s *float64, ld int, p int, full int, mask *[4]int64) bool

//go:noescape
func csrAxpy(cols *int, vals *float64, nnz int, gt *float64, d *float64, ld int, p int, full int, mask *[4]int64) bool
