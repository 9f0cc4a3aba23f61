package main

import (
	"fmt"
	"math"
	"math/rand"

	"newtonadmm/internal/datasets"
	"newtonadmm/internal/loss"
)

// A workload pairs a training problem with a client traffic shape. Every
// workload walks both ladders (train, then serve the trained model); its
// focus says which one the measured window is spent on, and the other
// runs once at a small size so that every metric is a measurement on
// every workload.
type workload struct {
	Name  string
	Why   string
	Focus string // "train" or "serve"

	// Pool is the fixed population the training set is drawn from: its
	// Seed never changes, so the planted model — and with it how hard the
	// problem is — is the same on every run. -seed picks which Rows of the
	// pool's training split are used and in what order.
	Pool datasets.Config
	Rows int

	// Training: Newton-ADMM on 2 ranks until objective <= ThetaFrac*n*ln C.
	Lambda    float64
	ThetaFrac float64
	UseTCP    bool
	AccFloor  float64 // a solve whose test accuracy is below this failed

	// Serving traffic against the two-shard fleet.
	Open       bool    // open loop at RatePerSec; else closed loop with 2 clients
	RatePerSec float64 // open loop only
	RowsPerReq int
	Proba      bool // POST /v1/proba instead of /v1/predict
}

const (
	ranks       = 2  // the reference box has two cores
	clientConns = 2  // keep-alive connections, and closed-loop clients
	maxEpochs   = 60 // a solve that has not reached theta by then failed
	requestPool = 256
)

// mnistPool and e18Pool are the dense and sparse populations. Pool sizes
// are 1.25x the rows drawn, so two seeds share most rows but never the
// same set or order.
func mnistPool(rows int) datasets.Config {
	c := datasets.MNISTLike(1)
	c.Samples, c.TestSamples = rows*5/4, 2000
	return c
}

func e18Pool(rows int) datasets.Config {
	c := datasets.E18Like(1)
	c.Samples, c.TestSamples = rows*5/4, 400
	return c
}

// workloads lists the four workloads in the order -selfcheck runs them.
// ThetaFrac is pinned where the seed code's objective falls steeply from
// one epoch to the next — further than it varies from seed to seed — so
// epochs_to_target is the same count on every seed (see README.md).
var workloads = []workload{
	{
		Name:  "train-dense",
		Why:   "8000x784 dense, 10 classes, 2 in-process ranks: linalg/device/loss/cg/newton/admm do nearly all the work; sparse kernels and the wire do almost none",
		Focus: "train", Pool: mnistPool(8000), Rows: 8000,
		Lambda: 1e-5, ThetaFrac: 0.266, AccFloor: 0.55,
		RowsPerReq: 1,
	},
	{
		Name:  "train-sparse-tcp",
		Why:   "1500x27998 CSR at 2%, 20 classes, 2 ranks over loopback TCP: sparse CSR kernels and CG over 532k-float vectors do the work, dense linalg none; the 4.3 MB collectives are about 2% of an epoch",
		Focus: "train", Pool: e18Pool(1500), Rows: 1500,
		Lambda: 1, ThetaFrac: 0.186, UseTCP: true, AccFloor: 0.09,
		RowsPerReq: 1,
	},
	{
		Name:  "serve-row-open",
		Why:   "open loop paced at 500 req/s, one row per POST /v1/predict on 2 keep-alive connections: per-request overhead (HTTP+JSON edge, scatter/merge, frame round trip) dominates, kernel work is tiny",
		Focus: "serve", Pool: mnistPool(4000), Rows: 4000,
		Lambda: 1e-5, ThetaFrac: 0.2715, AccFloor: 0.52,
		Open: true, RatePerSec: 500, RowsPerReq: 1,
	},
	{
		Name:  "serve-batch-closed",
		Why:   "closed loop, 2 clients, 32 rows per POST /v1/proba: JSON decode of 32x784 floats, frame bytes, MulNT scoring and the wide response dominate; fixed per-request cost is amortised",
		Focus: "serve", Pool: mnistPool(4000), Rows: 4000,
		Lambda: 1e-5, ThetaFrac: 0.2715, AccFloor: 0.52,
		RowsPerReq: 32, Proba: true,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// theta is the absolute target objective for a training set of n rows.
func (w workload) theta(n int) float64 {
	return w.ThetaFrac * float64(n) * math.Log(float64(w.Pool.Classes))
}

// buildDataset generates the pool and draws the training set for seed:
// a seeded permutation of the pool's training rows, cut to w.Rows. The
// test split is the pool's, unchanged.
func (w workload) buildDataset(seed int64) (*datasets.Dataset, error) {
	ds, err := datasets.Generate(w.Pool)
	if err != nil {
		return nil, fmt.Errorf("generate %s pool: %w", w.Name, err)
	}
	if w.Rows > ds.TrainSize() {
		return nil, fmt.Errorf("%s draws %d rows from a pool of %d", w.Name, w.Rows, ds.TrainSize())
	}
	idx := rand.New(rand.NewSource(seed)).Perm(ds.TrainSize())[:w.Rows]
	y := make([]int, len(idx))
	for k, i := range idx {
		y[k] = ds.Ytrain[i]
	}
	ds.Xtrain, ds.Ytrain = ds.Xtrain.Subset(idx), y
	return ds, nil
}

// row is one request instance: dense values, or the nonzeros of a sparse
// row.
type row struct {
	Dense []float64
	Idx   []int
	Val   []float64
}

func (r row) sparse() bool { return r.Dense == nil }

// featureRow copies row i of x.
func featureRow(x loss.Features, i int) row {
	switch f := x.(type) {
	case loss.Dense:
		return row{Dense: append([]float64(nil), f.M.Row(i)...)}
	case loss.Sparse:
		lo, hi := f.M.RowPtr[i], f.M.RowPtr[i+1]
		return row{
			Idx: append([]int{}, f.M.Col[lo:hi]...),
			Val: append([]float64{}, f.M.Val[lo:hi]...),
		}
	}
	panic(fmt.Sprintf("bench: unknown feature type %T", x))
}

// requestRows draws the request pool: requestPool rows of the test split,
// chosen by seed.
func requestRows(ds *datasets.Dataset, seed int64) []row {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	n := ds.TestSize()
	rows := make([]row, requestPool)
	for k := range rows {
		rows[k] = featureRow(ds.Xtest, rng.Intn(n))
	}
	return rows
}
