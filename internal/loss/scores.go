package loss

// Partial-logit scoring: the class-sharded serving tier splits the
// model's (C-1) x p class-major weight rows across replicas, each of
// which lays its slice out feature-major once and scores a raw partial
// score tile S_r = X * W_r^T for its rows, and the router reassembles the
// full score matrix column-range by column-range before applying the
// same argmax / probability transforms as single-node prediction. The
// split is exact because the MulNT kernels (dense and CSR) compute every
// output class with its own accumulator in increasing-j order — S[i,c]
// depends only on row i of X and class c's weights, never on how many
// classes share the launch — so merged shard scores are bitwise
// identical to one full-width launch.

// ScoresInto writes the raw explicit-class score tile S = X * W^T into
// out, row-major x.Rows() x (C-1). No softmax transform is applied: this
// is the partial-logit kernel a class-shard replica runs over its slice
// of the weight rows (its local C counts the shard's rows plus the
// implicit reference class). Scratch-free and zero-allocation: out is
// the kernel's destination.
func (s *Softmax) ScoresInto(x Features, w []float64, out []float64) {
	rows := x.Rows()
	if len(out) != rows*(s.C-1) {
		panic("loss: ScoresInto output dimension mismatch")
	}
	if rows == 0 {
		return
	}
	s.Dev.MulNT(x.Operand(), w, s.C-1, out)
}

// PredictFromScores writes the argmax class of each row of a full
// explicit-class score matrix (row-major rows x (classes-1)) into out,
// with exactly the tie-breaking of PredictInto: the zero-score reference
// class classes-1 wins unless some explicit score is strictly positive,
// and among explicit classes the lowest index wins ties. This is the
// router-side merge kernel for class-sharded prediction.
func PredictFromScores(scores []float64, rows, classes int, out []int) {
	m := classes - 1
	if len(scores) != rows*m {
		panic("loss: PredictFromScores score dimension mismatch")
	}
	if len(out) != rows {
		panic("loss: PredictFromScores output dimension mismatch")
	}
	for i := 0; i < rows; i++ {
		row := scores[i*m : (i+1)*m]
		best, bestScore := classes-1, 0.0 // reference class has score 0
		for c, v := range row {
			if v > bestScore {
				best, bestScore = c, v
			}
		}
		out[i] = best
	}
}

// ProbaFromScores expands a full explicit-class score matrix (row-major
// rows x (classes-1)) into class probabilities (row-major rows x
// classes, reference class last), using the same stabilized transform as
// ProbaInto — merged shard scores therefore produce bitwise-identical
// probabilities to a single-node ProbaInto call. out must not alias
// scores.
func ProbaFromScores(scores []float64, rows, classes int, out []float64) {
	m := classes - 1
	if len(scores) != rows*m {
		panic("loss: ProbaFromScores score dimension mismatch")
	}
	if len(out) != rows*classes {
		panic("loss: ProbaFromScores output dimension mismatch")
	}
	for i := 0; i < rows; i++ {
		probaRow(scores[i*m:(i+1)*m], out[i*classes:(i+1)*classes])
	}
}
