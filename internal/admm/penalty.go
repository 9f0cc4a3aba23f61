package admm

import "math"

// IterState carries one rank's view of an ADMM iteration's results, the
// raw material for penalty adaptation.
type IterState struct {
	// X1 is the fresh local subproblem solution x_i^{k+1}.
	X1 []float64
	// Z0 and Z1 are the consensus before and after the z-update.
	Z0, Z1 []float64
	// Y0 and Y1 are the multiplier before and after the y-update.
	Y0, Y1 []float64
	// Primal is this rank's primal residual ||x_i - z||.
	Primal float64
	// Dual is this rank's dual residual ||rho (z1 - z0)||.
	Dual float64
}

// PenaltyPolicy adapts one rank's ADMM penalty parameter. Update is called
// once per ADMM iteration (iteration index k starting at 1); it returns
// the penalty to use for the next iteration.
type PenaltyPolicy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Rho returns the current penalty.
	Rho() float64
	// Update observes iteration k's results and returns the new penalty.
	Update(k int, st IterState) float64
	// State serializes the policy's full mutable state as float64s, so a
	// checkpointed run resumes with bitwise-identical adaptation. The
	// layout is policy-specific; SetState of the same policy type inverts
	// it exactly.
	State() []float64
	// SetState restores state produced by State. It reports false when
	// the encoding does not match this policy type.
	SetState(s []float64) bool
}

// FixedPenalty keeps rho constant (vanilla consensus ADMM).
type FixedPenalty struct{ Value float64 }

// Name implements PenaltyPolicy.
func (f *FixedPenalty) Name() string { return "fixed" }

// Rho implements PenaltyPolicy.
func (f *FixedPenalty) Rho() float64 { return f.Value }

// Update implements PenaltyPolicy (no adaptation).
func (f *FixedPenalty) Update(int, IterState) float64 { return f.Value }

// State implements PenaltyPolicy: [rho].
func (f *FixedPenalty) State() []float64 { return []float64{f.Value} }

// SetState implements PenaltyPolicy.
func (f *FixedPenalty) SetState(s []float64) bool {
	if len(s) != 1 {
		return false
	}
	f.Value = s[0]
	return true
}

// ResidualBalancing is the classic adaptive rule of He, Yang & Wang (2000):
// grow rho when the primal residual dominates, shrink when the dual
// residual dominates. The paper cites it as the common default whose
// convergence "is still not effective in practice".
type ResidualBalancing struct {
	rho float64
	// Mu is the imbalance threshold (default 10).
	Mu float64
	// Tau is the multiplicative step (default 2).
	Tau float64
}

// NewResidualBalancing returns the policy with textbook constants.
func NewResidualBalancing(rho0 float64) *ResidualBalancing {
	return &ResidualBalancing{rho: rho0, Mu: 10, Tau: 2}
}

// Name implements PenaltyPolicy.
func (rb *ResidualBalancing) Name() string { return "residual-balancing" }

// Rho implements PenaltyPolicy.
func (rb *ResidualBalancing) Rho() float64 { return rb.rho }

// State implements PenaltyPolicy: [rho] (Mu and Tau are configuration,
// not evolving state).
func (rb *ResidualBalancing) State() []float64 { return []float64{rb.rho} }

// SetState implements PenaltyPolicy.
func (rb *ResidualBalancing) SetState(s []float64) bool {
	if len(s) != 1 {
		return false
	}
	rb.rho = s[0]
	return true
}

// Update implements PenaltyPolicy from the residual norms.
func (rb *ResidualBalancing) Update(_ int, st IterState) float64 {
	if st.Primal > rb.Mu*st.Dual {
		rb.rho *= rb.Tau
	} else if st.Dual > rb.Mu*st.Primal {
		rb.rho /= rb.Tau
	}
	return rb.rho
}

// SpectralPenalty is Spectral Penalty Selection (SPS) following Xu,
// Figueiredo & Goldstein's adaptive ADMM and its consensus variant
// (ACADMM), the policy the paper adopts (§2.2, refs [29, 30]): per-rank
// Barzilai-Borwein curvature estimates of the local objective and the
// regularizer, combined through a correlation safeguard.
type SpectralPenalty struct {
	rho float64
	// EpsCor is the correlation threshold below which estimates are
	// considered unreliable (Xu et al. use 0.2).
	EpsCor float64
	// Tf is the adaptation period in iterations (Xu et al. use 2).
	Tf int
	// Ccg bounds the relative change per update via (1 + Ccg/k^2).
	Ccg float64
	// MinRho/MaxRho clamp the penalty to a sane range.
	MinRho, MaxRho float64

	havePrev              bool
	x0, z0, lamHat0, lam0 []float64
}

// NewSpectralPenalty returns an SPS policy with the constants of the
// ACADMM paper.
func NewSpectralPenalty(rho0 float64) *SpectralPenalty {
	return &SpectralPenalty{
		rho:    rho0,
		EpsCor: 0.2,
		Tf:     2,
		Ccg:    1e10,
		MinRho: 1e-8,
		MaxRho: 1e8,
	}
}

// Name implements PenaltyPolicy.
func (sp *SpectralPenalty) Name() string { return "spectral" }

// Rho implements PenaltyPolicy.
func (sp *SpectralPenalty) Rho() float64 { return sp.rho }

// spectralStep combines the steepest-descent and minimum-gradient
// Barzilai-Borwein estimates with the hybrid rule of Xu et al.:
// use MG when 2*MG > SD, otherwise SD - MG/2.
func spectralStep(sd, mg float64) float64 {
	if 2*mg > sd {
		return mg
	}
	return sd - float64(mg/2)
}

// Update implements PenaltyPolicy. The spectral quotients need the
// gradients the iterates imply, not the raw multipliers:
//
//   - at the stationary point of the x-subproblem (eq. 6a),
//     grad f_i(x1) = y0 + rho (z0 - x1) =: lamHat, so (dx, dLamHat)
//     estimates the local objective's curvature;
//   - at the stationary point of the z-subproblem (eq. 6b/7),
//     grad g(z1) = -sum_i y1_i, so per node -y1 =: lam is its share and
//     (dz, dLam) estimates the regularizer's curvature.
//
// One pass over the iterate forms the six inner products, each summed in
// index order as linalg.Dot would, and overwrites the snapshot in place,
// so an update allocates nothing once the snapshot exists.
func (sp *SpectralPenalty) Update(k int, st IterState) float64 {
	havePrev := sp.havePrev
	if havePrev && sp.Tf > 1 && k%sp.Tf != 0 {
		return sp.rho
	}
	dim := len(st.X1)
	x0, z0, lamHat0, lam0 := grow(sp.x0, dim), grow(sp.z0, dim), grow(sp.lamHat0, dim), grow(sp.lam0, dim)
	// Inner products of the local objective's (dx, dlamHat) and of the
	// regularizer's (dz, dlam); meaningless on the first call, which
	// only takes the snapshot.
	var dxDlh, dlhSq, dxSq, dzDl, dlSq, dzSq float64
	for j := range dim {
		lamHat := st.Y0[j] + float64(sp.rho*(st.Z0[j]-st.X1[j]))
		lam := -st.Y1[j]
		dx := st.X1[j] - x0[j]
		dz := st.Z1[j] - z0[j]
		dlh := lamHat - lamHat0[j]
		dl := lam - lam0[j]
		dxDlh += float64(dx * dlh)
		dlhSq += float64(dlh * dlh)
		dxSq += float64(dx * dx)
		dzDl += float64(dz * dl)
		dlSq += float64(dl * dl)
		dzSq += float64(dz * dz)
		x0[j], z0[j], lamHat0[j], lam0[j] = st.X1[j], st.Z1[j], lamHat, lam
	}
	sp.x0, sp.z0, sp.lamHat0, sp.lam0, sp.havePrev = x0, z0, lamHat0, lam0, true
	if !havePrev {
		return sp.rho
	}

	var alphaOK, betaOK bool
	var alpha, beta float64
	if dxDlh > 0 && dlhSq > 0 && dxSq > 0 {
		aSD := dlhSq / dxDlh
		aMG := dxDlh / dxSq
		alpha = spectralStep(aSD, aMG)
		alphaCor := dxDlh / (math.Sqrt(dxSq) * math.Sqrt(dlhSq))
		alphaOK = alphaCor > sp.EpsCor && alpha > 0
	}
	if dzDl > 0 && dlSq > 0 && dzSq > 0 {
		bSD := dlSq / dzDl
		bMG := dzDl / dzSq
		beta = spectralStep(bSD, bMG)
		betaCor := dzDl / (math.Sqrt(dzSq) * math.Sqrt(dlSq))
		betaOK = betaCor > sp.EpsCor && beta > 0
	}

	proposal := sp.rho
	switch {
	case alphaOK && betaOK:
		proposal = math.Sqrt(alpha * beta)
	case alphaOK:
		proposal = alpha
	case betaOK:
		proposal = beta
	}

	// Convergence safeguard: bounded relative change, decaying with k.
	guard := 1 + sp.Ccg/float64(k*k)
	lo, hi := sp.rho/guard, sp.rho*guard
	proposal = math.Min(math.Max(proposal, lo), hi)
	proposal = math.Min(math.Max(proposal, sp.MinRho), sp.MaxRho)
	sp.rho = proposal
	return sp.rho
}

// grow returns v resized to n, reusing its backing array when it fits.
func grow(v []float64, n int) []float64 {
	if cap(v) < n {
		return make([]float64, n)
	}
	return v[:n]
}

// State implements PenaltyPolicy: [rho, havePrev] when no BB snapshot
// exists yet, else [rho, 1, x0..., z0..., lamHat0..., lam0...] with the
// four vectors equal-length (the iterate dimension is recovered from the
// slice length on restore).
func (sp *SpectralPenalty) State() []float64 {
	if !sp.havePrev {
		return []float64{sp.rho, 0}
	}
	out := make([]float64, 0, 2+4*len(sp.x0))
	out = append(out, sp.rho, 1)
	out = append(out, sp.x0...)
	out = append(out, sp.z0...)
	out = append(out, sp.lamHat0...)
	out = append(out, sp.lam0...)
	return out
}

// SetState implements PenaltyPolicy.
func (sp *SpectralPenalty) SetState(s []float64) bool {
	if len(s) < 2 {
		return false
	}
	rho, havePrev := s[0], s[1] != 0
	rest := s[2:]
	if !havePrev {
		if len(rest) != 0 {
			return false
		}
		sp.rho = rho
		sp.havePrev = false
		sp.x0, sp.z0, sp.lamHat0, sp.lam0 = nil, nil, nil, nil
		return true
	}
	if len(rest)%4 != 0 || len(rest) == 0 {
		return false
	}
	dim := len(rest) / 4
	sp.rho = rho
	sp.snapshot(rest[:dim], rest[dim:2*dim], rest[2*dim:3*dim], rest[3*dim:])
	return true
}

func (sp *SpectralPenalty) snapshot(x, z, lamHat, lam []float64) {
	sp.x0 = append(sp.x0[:0], x...)
	sp.z0 = append(sp.z0[:0], z...)
	sp.lamHat0 = append(sp.lamHat0[:0], lamHat...)
	sp.lam0 = append(sp.lam0[:0], lam...)
	sp.havePrev = true
}

// NewPolicy constructs a policy by name: "spectral", "residual-balancing",
// or "fixed". Unknown names fall back to spectral (the paper's default).
func NewPolicy(name string, rho0 float64) PenaltyPolicy {
	switch name {
	case "fixed":
		return &FixedPenalty{Value: rho0}
	case "residual-balancing":
		return NewResidualBalancing(rho0)
	default:
		return NewSpectralPenalty(rho0)
	}
}
