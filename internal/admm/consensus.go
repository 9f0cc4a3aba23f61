// Package admm implements the consensus machinery of paper §2.2: the
// closed-form z-update for L2 regularization (eq. 7), the multiplier
// update (eq. 6c), primal/dual residuals, and the penalty-parameter
// policies — Spectral Penalty Selection (Xu et al., the paper's choice),
// residual balancing (He et al., the baseline the paper calls
// ineffective), and a fixed penalty for ablations.
//
// Sign conventions follow the paper's eq. (6a-c) verbatim: the multiplier
// update is y_i <- y_i + rho_i (z - x_i), which makes y the negative of
// the textbook scaled dual.
package admm

import (
	"math"

	"newtonadmm/internal/linalg"
)

// UpdateZ computes the consensus variable of eq. (7):
//
//	z (lambda + sum_i rho_i) = sum_i (rho_i x_i - y_i)
//
// xs and ys are indexed by rank; rhos holds each rank's penalty. The
// result is written into z.
func UpdateZ(z []float64, xs, ys [][]float64, rhos []float64, lambda float64) {
	if len(xs) != len(ys) || len(xs) != len(rhos) {
		panic("admm: UpdateZ rank count mismatch")
	}
	linalg.Zero(z)
	var rhoSum float64
	for i := range xs {
		if len(xs[i]) != len(z) || len(ys[i]) != len(z) {
			panic("admm: UpdateZ dimension mismatch")
		}
		rho := rhos[i]
		rhoSum += rho
		for j := range z {
			z[j] += float64(rho*xs[i][j]) - ys[i][j]
		}
	}
	scale := lambda + rhoSum
	if scale <= 0 {
		panic("admm: UpdateZ nonpositive normalizer")
	}
	linalg.Scal(1/scale, z)
}

// UpdateY applies the multiplier update of eq. (6c) in place:
// y <- y + rho (z - x).
func UpdateY(y, z, x []float64, rho float64) {
	if len(y) != len(z) || len(y) != len(x) {
		panic("admm: UpdateY dimension mismatch")
	}
	for j := range y {
		y[j] += float64(rho * (z[j] - x[j]))
	}
}

// Anchor computes the local subproblem anchor v = z + y/rho of eq. (6a)
// into v.
func Anchor(v, z, y []float64, rho float64) {
	if rho <= 0 {
		panic("admm: Anchor requires positive rho")
	}
	linalg.Waxpby(1, z, 1/rho, y, v)
}

// PrimalResidual returns ||x - z||, one rank's disagreement with the
// consensus.
func PrimalResidual(x, z []float64) float64 {
	return linalg.Dist2(x, z)
}

// DualResidual returns ||rho (z - zPrev)||, the standard consensus-ADMM
// dual residual for one rank.
func DualResidual(z, zPrev []float64, rho float64) float64 {
	return math.Abs(rho) * linalg.Dist2(z, zPrev)
}
