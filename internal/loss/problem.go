// Package loss defines the optimization problems of the paper: multi-class
// softmax cross-entropy with L2 regularization (paper §5), numerically
// stabilized with the log-sum-exp trick (paper §6), together with the
// Hessian-free operator interface consumed by the Newton-CG solver and the
// augmented-Lagrangian wrapper used by the ADMM subproblems (eq. 6a).
package loss

import (
	"newtonadmm/internal/device"
	"newtonadmm/internal/linalg"
	"newtonadmm/internal/sparse"
)

// Problem is a twice-differentiable objective accessed Hessian-free.
// Implementations are not safe for concurrent use; each cluster rank owns
// its own Problem over its local shard.
type Problem interface {
	// Dim is the number of optimization variables.
	Dim() int
	// Value evaluates the objective at w.
	Value(w []float64) float64
	// Gradient fills g with the gradient at w and returns the objective
	// value (fused, since both share the score computation).
	Gradient(w, g []float64) float64
	// HessianAt returns an operator applying the Hessian at w. The
	// operator caches per-sample quantities so repeated applications
	// inside CG cost two matrix products each. The operator may share
	// scratch with the problem: it stays valid until the next HessianAt
	// call on the same problem.
	HessianAt(w []float64) HessianOperator
}

// HessianOperator applies a fixed Hessian to vectors.
type HessianOperator interface {
	// Apply computes hv = H v.
	Apply(v, hv []float64)
}

// DiagHessian is implemented by problems that can also produce the
// Hessian diagonal at w, enabling Jacobi-preconditioned CG.
type DiagHessian interface {
	// HessianDiag fills diag with the Hessian diagonal at w.
	HessianDiag(w, diag []float64)
}

// Features abstracts the design matrix so dense and sparse data share the
// same solver code: the device runs its products over Operand().
type Features interface {
	// Rows is the number of samples.
	Rows() int
	// Cols is the number of raw features p.
	Cols() int
	// Operand returns the design matrix the device's products run over.
	Operand() device.Operand
	// Subset returns the features restricted to the given rows (copied).
	Subset(idx []int) Features
}

// Dense adapts a dense row-major matrix to the Features interface.
type Dense struct{ M *linalg.Matrix }

// Rows returns the number of samples.
func (d Dense) Rows() int { return d.M.Rows }

// Cols returns the number of features.
func (d Dense) Cols() int { return d.M.Cols }

// Operand returns the dense matrix.
func (d Dense) Operand() device.Operand { return d.M }

// Subset returns a copy of the selected rows.
func (d Dense) Subset(idx []int) Features { return Dense{M: d.M.RowSubset(idx)} }

// Sparse adapts a CSR matrix to the Features interface.
type Sparse struct{ M *sparse.CSR }

// Rows returns the number of samples.
func (s Sparse) Rows() int { return s.M.NumRows }

// Cols returns the number of features.
func (s Sparse) Cols() int { return s.M.NumCols }

// Operand returns the CSR matrix.
func (s Sparse) Operand() device.Operand { return s.M }

// Subset returns a copy of the selected rows.
func (s Sparse) Subset(idx []int) Features { return Sparse{M: s.M.RowSubset(idx)} }
