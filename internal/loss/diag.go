package loss

import "newtonadmm/internal/linalg"

// HessianDiag fills diag (length Dim(), feature-major like w, so
// diag[j*m+c] is element (c,j)) with the diagonal of the softmax Hessian
// at w:
//
//	H[(c,j),(c,j)] = sum_i a_ij^2 * p_ic (1 - p_ic) + L2,
//
// computed as one fused device kernel (scores and probabilities in a
// single MulNTReduce launch, overwriting the score tile in place). The
// diagonal is what a Jacobi preconditioner for CG needs — an optional
// optimization beyond the paper, exposed through cg.Options.Jacobi.
func (s *Softmax) HessianDiag(w, diag []float64) {
	if len(diag) != s.Dim() {
		panic("loss: HessianDiag dimension mismatch")
	}
	n, m := s.X.Rows(), s.C-1
	s.ensureScratch()
	s.Dev.MulNTReduce(s.X.Operand(), w, m, s.scores, s.probFn)
	probs := s.scores

	for j := range diag {
		diag[j] = s.L2
	}
	switch x := s.X.(type) {
	case Dense:
		// Accumulate diag[j*m+c] += a_ij^2 * w_ic where w_ic =
		// p_ic(1-p_ic), each element over rows in increasing order.
		// Parallelize over rows with arena-pooled chunk accumulators
		// like the gradient kernel.
		accumulateDiagDense(s, x, probs, diag, n, m)
	case Sparse:
		accumulateDiagSparse(s, x, probs, diag, n, m)
	default:
		// Generic fallback through m Hessian-free probes would be O(m)
		// products; unknown Features implementations are not expected.
		panic("loss: HessianDiag requires Dense or Sparse features")
	}
}

func accumulateDiagDense(s *Softmax, x Dense, probs, diag []float64, n, m int) {
	parts := s.Dev.ScratchParts(s.Dev.ChunkCount(n, 0), len(diag))
	s.Dev.ParallelForChunks(n, 0, func(chunk, lo, hi int) {
		part := parts[chunk]
		linalg.Zero(part)
		for i := lo; i < hi; i++ {
			row := x.M.Row(i)
			pr := probs[i*m : (i+1)*m]
			for c := 0; c < m; c++ {
				w := pr[c] * (1 - pr[c])
				if w == 0 {
					continue
				}
				for j, v := range row {
					part[j*m+c] += float64(w * v * v)
				}
			}
		}
	})
	reduceDiagParts(diag, parts)
}

func accumulateDiagSparse(s *Softmax, x Sparse, probs, diag []float64, n, m int) {
	parts := s.Dev.ScratchParts(s.Dev.ChunkCount(n, 0), len(diag))
	s.Dev.ParallelForChunks(n, 0, func(chunk, lo, hi int) {
		part := parts[chunk]
		linalg.Zero(part)
		for i := lo; i < hi; i++ {
			pr := probs[i*m : (i+1)*m]
			start, end := x.M.RowPtr[i], x.M.RowPtr[i+1]
			for c := 0; c < m; c++ {
				w := pr[c] * (1 - pr[c])
				if w == 0 {
					continue
				}
				for k := start; k < end; k++ {
					v := x.M.Val[k]
					part[x.M.Col[k]*m+c] += float64(w * v * v)
				}
			}
		}
	})
	reduceDiagParts(diag, parts)
}

// reduceDiagParts adds chunk partials into diag in chunk order, keeping
// the floating-point sum deterministic.
func reduceDiagParts(diag []float64, parts [][]float64) {
	for _, part := range parts {
		for j, v := range part {
			diag[j] += v
		}
	}
}
