package dist

import (
	"fmt"
	"math"
	"testing"

	"newtonadmm/internal/cluster"
	"newtonadmm/internal/datasets"
	"newtonadmm/internal/device"
	"newtonadmm/internal/loss"
)

func testDataset(t *testing.T) *datasets.Dataset {
	t.Helper()
	ds, err := datasets.Generate(datasets.Config{
		Name: "dist-test", Samples: 60, TestSamples: 20,
		Features: 5, Classes: 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestBuildLocalShardIsAView: each rank's features are its rows of the
// training set itself, so a run holds one copy of the data.
func TestBuildLocalShardIsAView(t *testing.T) {
	ds := testDataset(t)
	x := ds.Xtrain.(loss.Dense).M
	_, err := cluster.Run(cluster.Config{Ranks: 2, DeviceWorkers: 1}, func(node *cluster.Node) error {
		local, err := BuildLocal(node, ds, 0.9, true)
		if err != nil {
			return err
		}
		lo, _ := datasets.ShardRange(ds.TrainSize(), 2, node.Rank())
		if shard := local.Problem.X.(loss.Dense).M; &shard.Data[0] != &x.Data[lo*x.Cols] {
			return fmt.Errorf("rank %d: shard rows are a copy", node.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBuildLocalShardsPartitionData(t *testing.T) {
	ds := testDataset(t)
	const ranks = 3
	totals := make([]int, ranks)
	var l2s []float64
	_, err := cluster.Run(cluster.Config{Ranks: ranks, DeviceWorkers: 1},
		func(node *cluster.Node) error {
			local, err := BuildLocal(node, ds, 0.9, true)
			if err != nil {
				return err
			}
			totals[node.Rank()] = local.Problem.N()
			if local.N != ds.TrainSize() {
				return nil
			}
			node.Frozen(func() {
				buf := []float64{local.Problem.L2}
				node.AllReduceSum(buf)
				if node.Rank() == 0 {
					l2s = append(l2s, buf[0])
				}
			})
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, n := range totals {
		sum += n
	}
	if sum != ds.TrainSize() {
		t.Fatalf("shards cover %d samples, want %d", sum, ds.TrainSize())
	}
	// Sharded L2 must sum back to the global lambda.
	if len(l2s) != 1 || math.Abs(l2s[0]-0.9) > 1e-12 {
		t.Fatalf("sharded L2 sums to %v, want 0.9", l2s)
	}
}

// TestGlobalGradientMatchesSingleNode checks that the distributed
// gradient/objective equals a single-node evaluation of the fully
// regularized problem, in both regularization conventions.
func TestGlobalGradientMatchesSingleNode(t *testing.T) {
	ds := testDataset(t)
	const lambda = 0.3
	w := make([]float64, ds.Dim())
	for i := range w {
		w[i] = 0.05 * float64(i%9)
	}

	// Single-node reference.
	refDev := device.New("dist-ref", 1)
	defer refDev.Close()
	ref, err := loss.NewSoftmax(refDev, ds.Xtrain, ds.Ytrain, ds.Classes, lambda)
	if err != nil {
		t.Fatal(err)
	}
	gRef := make([]float64, ds.Dim())
	vRef := ref.Gradient(w, gRef)

	for _, shardL2 := range []bool{true, false} {
		var gotVal float64
		gGot := make([]float64, ds.Dim())
		_, err := cluster.Run(cluster.Config{Ranks: 3, DeviceWorkers: 1},
			func(node *cluster.Node) error {
				local, err := BuildLocal(node, ds, lambda, shardL2)
				if err != nil {
					return err
				}
				g := make([]float64, ds.Dim())
				val := local.GlobalGradient(node, w, g)
				if node.Rank() == 0 {
					gotVal = val
					copy(gGot, g)
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(gotVal-vRef) > 1e-9*math.Max(1, math.Abs(vRef)) {
			t.Fatalf("shardL2=%v: global value %v, want %v", shardL2, gotVal, vRef)
		}
		for j := range gRef {
			if math.Abs(gGot[j]-gRef[j]) > 1e-9*math.Max(1, math.Abs(gRef[j])) {
				t.Fatalf("shardL2=%v: global gradient differs at %d: %v vs %v",
					shardL2, j, gGot[j], gRef[j])
			}
		}
	}
}

func TestRecorderObserveFrozenAndConsistent(t *testing.T) {
	ds := testDataset(t)
	w := make([]float64, ds.Dim())
	objs := make([]float64, 3)
	var points int
	var acc float64
	_, err := cluster.Run(cluster.Config{Ranks: 3, DeviceWorkers: 1},
		func(node *cluster.Node) error {
			local, err := BuildLocal(node, ds, 0.1, true)
			if err != nil {
				return err
			}
			rec := NewRecorder("test-solver", ds, local, true)
			rounds := node.Rounds()
			objs[node.Rank()] = rec.Observe(node, 0, w)
			if node.Rounds() != rounds {
				return nil // frozen instrumentation must not count rounds
			}
			if node.Rank() == 0 {
				points = len(rec.Trace.Points)
				acc = rec.Trace.Points[0].TestAccuracy
				if rec.Trace.Solver != "test-solver" || rec.Trace.Dataset != ds.Name {
					points = -1
				}
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// Every rank must see the identical allreduced objective (the
	// early-stopping contract), equal to n*log(C) at w=0.
	want := float64(ds.TrainSize()) * math.Log(float64(ds.Classes))
	for r, o := range objs {
		if math.Abs(o-want) > 1e-9*want {
			t.Fatalf("rank %d observed %v, want %v", r, o, want)
		}
		if o != objs[0] {
			t.Fatalf("rank %d observed %v != rank 0's %v", r, o, objs[0])
		}
	}
	if points != 1 {
		t.Fatalf("rank 0 recorded %d trace points (or bad labels), want 1", points)
	}
	if math.IsNaN(acc) || acc < 0 || acc > 1 {
		t.Fatalf("test accuracy %v outside [0,1]", acc)
	}
}
