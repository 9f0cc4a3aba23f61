// Package datasets provides the evaluation corpora of the reproduction.
// The paper trains on HIGGS, MNIST, CIFAR-10 and E18 (Table 1); those
// files are not redistributable here, so this package generates synthetic
// analogues that match each dataset's problem character — class count,
// feature count, sparsity, and Hessian conditioning — which are the
// properties the paper's comparisons actually exercise (see DESIGN.md).
// A LIBSVM reader is included for running on the real files when present.
package datasets

import (
	"fmt"
	"math"
	"math/rand"

	"newtonadmm/internal/linalg"
	"newtonadmm/internal/loss"
	"newtonadmm/internal/sparse"
)

// Config describes a synthetic classification dataset drawn from a
// planted softmax model: ground-truth weights W* are sampled, features are
// Gaussian with per-feature scale decay (which controls the condition
// number of the Hessian), and labels are drawn from the softmax
// probabilities at temperature Noise.
type Config struct {
	// Name labels the dataset in experiment output.
	Name string
	// Samples and TestSamples are the train/test sizes.
	Samples, TestSamples int
	// Features is the raw feature dimension p.
	Features int
	// Classes is the number of classes C >= 2.
	Classes int
	// Seed makes generation deterministic.
	Seed int64
	// Sparsity in (0,1] stores features as CSR with that density;
	// 0 generates dense features.
	Sparsity float64
	// Decay is the feature-scale power-law exponent: feature j has scale
	// (j+1)^-Decay. Zero gives an isotropic, well-conditioned problem;
	// larger values give ill-conditioned Hessians (the CIFAR-10 regime).
	Decay float64
	// Noise is the label temperature; higher means noisier labels.
	// <= 0 selects 1.
	Noise float64
	// Separation scales the planted weights; <= 0 selects 1.
	Separation float64
}

// Dataset is an in-memory classification dataset.
type Dataset struct {
	Name    string
	Classes int
	// Train/Test features and labels.
	Xtrain, Xtest loss.Features
	Ytrain, Ytest []int
}

// NumFeatures returns the raw feature dimension p.
func (d *Dataset) NumFeatures() int { return d.Xtrain.Cols() }

// TrainSize returns the number of training samples.
func (d *Dataset) TrainSize() int { return d.Xtrain.Rows() }

// TestSize returns the number of test samples.
func (d *Dataset) TestSize() int {
	if d.Xtest == nil {
		return 0
	}
	return d.Xtest.Rows()
}

// Dim returns the optimization dimension (C-1)*p.
func (d *Dataset) Dim() int { return (d.Classes - 1) * d.NumFeatures() }

func (c Config) withDefaults() Config {
	if c.Noise <= 0 {
		c.Noise = 1
	}
	if c.Separation <= 0 {
		c.Separation = 1
	}
	return c
}

// Generate builds the dataset described by cfg.
func Generate(cfg Config) (*Dataset, error) {
	cfg = cfg.withDefaults()
	if cfg.Classes < 2 {
		return nil, fmt.Errorf("datasets: need >= 2 classes, got %d", cfg.Classes)
	}
	if cfg.Samples <= 0 || cfg.Features <= 0 {
		return nil, fmt.Errorf("datasets: need positive samples and features")
	}
	if cfg.Sparsity < 0 || cfg.Sparsity > 1 {
		return nil, fmt.Errorf("datasets: sparsity %v outside [0,1]", cfg.Sparsity)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	p, m := cfg.Features, cfg.Classes-1
	scales := make([]float64, p)
	var scaleEnergy float64
	for j := range scales {
		scales[j] = math.Pow(float64(j+1), -cfg.Decay)
		scaleEnergy += scales[j] * scales[j]
	}
	// Planted weights, normalized by the feature-scale energy so that the
	// per-class score standard deviation is Separation regardless of Decay
	// (features have E[x_j^2] = scales[j]^2 in both the dense and the
	// sparse branch, so Var(<x, w_c>) = sum_j scales[j]^2 w_cj^2). Without
	// this the decayed presets planted signal far below their label noise
	// and test accuracy stayed at chance (see ROADMAP). They are drawn
	// class by class and stored feature-major (p×m), the layout of the
	// product that scores the labels below.
	wTrue := make([]float64, m*p)
	for c := 0; c < m; c++ {
		for j := 0; j < p; j++ {
			wTrue[j*m+c] = cfg.Separation * rng.NormFloat64() / math.Sqrt(scaleEnergy)
		}
	}

	total := cfg.Samples + cfg.TestSamples
	var x loss.Features
	var csrEntries []sparse.Coord
	var dense *linalg.Matrix
	if cfg.Sparsity > 0 && cfg.Sparsity < 1 {
		inv := 1 / math.Sqrt(cfg.Sparsity)
		for i := 0; i < total; i++ {
			for j := 0; j < p; j++ {
				if rng.Float64() < cfg.Sparsity {
					csrEntries = append(csrEntries, sparse.Coord{
						Row: i, Col: j, Val: scales[j] * rng.NormFloat64() * inv,
					})
				}
			}
		}
		csr, err := sparse.FromCoords(total, p, csrEntries)
		if err != nil {
			return nil, err
		}
		x = loss.Sparse{M: csr}
	} else {
		dense = linalg.NewMatrix(total, p)
		for i := 0; i < total; i++ {
			row := dense.Row(i)
			for j := 0; j < p; j++ {
				row[j] = scales[j] * rng.NormFloat64()
			}
		}
		x = loss.Dense{M: dense}
	}

	// Labels from the planted softmax at temperature Noise. One serial
	// product scores every row: each score sums its products in feature
	// order from +0, as linalg.Dot over the densified row would, since
	// the zeros a CSR row skips would add only ±0 products.
	scores := make([]float64, total*m)
	x.Operand().MulNTRange(wTrue, m, scores, 0, total)
	y := make([]int, total)
	probBuf := make([]float64, m+1)
	for i := 0; i < total; i++ {
		si := scores[i*m : (i+1)*m]
		for c := range si {
			si[c] /= cfg.Noise
		}
		y[i] = sampleSoftmax(rng, si, probBuf)
	}

	train := indexRange(0, cfg.Samples)
	test := indexRange(cfg.Samples, total)
	d := &Dataset{
		Name:    cfg.Name,
		Classes: cfg.Classes,
		Xtrain:  x.Subset(train),
		Ytrain:  subsetInts(y, train),
	}
	if cfg.TestSamples > 0 {
		d.Xtest = x.Subset(test)
		d.Ytest = subsetInts(y, test)
	}
	return d, nil
}

// sampleSoftmax draws a class from the softmax over scores (with the
// implicit reference class scoring zero), using the stabilized form.
func sampleSoftmax(rng *rand.Rand, scores, prob []float64) int {
	m := len(scores)
	mx := 0.0
	for _, s := range scores {
		if s > mx {
			mx = s
		}
	}
	var total float64
	for c := 0; c < m; c++ {
		prob[c] = math.Exp(scores[c] - mx)
		total += prob[c]
	}
	prob[m] = math.Exp(-mx) // reference class
	total += prob[m]
	u := rng.Float64() * total
	var acc float64
	for c := 0; c <= m; c++ {
		acc += prob[c]
		if u <= acc {
			return c
		}
	}
	return m
}

func indexRange(lo, hi int) []int {
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	return idx
}

func subsetInts(y []int, idx []int) []int {
	out := make([]int, len(idx))
	for k, i := range idx {
		out[k] = y[i]
	}
	return out
}

// ShardRange returns the rows [lo, hi) of rank r's contiguous shard when
// the training set is split across `ranks` nodes (paper's strong
// scaling).
func ShardRange(n, ranks, r int) (lo, hi int) {
	return r * n / ranks, (r + 1) * n / ranks
}

// Shard returns the row indices of ShardRange(n, ranks, r).
func Shard(n, ranks, r int) []int {
	return indexRange(ShardRange(n, ranks, r))
}
