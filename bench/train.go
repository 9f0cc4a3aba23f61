package main

import (
	"fmt"
	"math"
	"time"

	"newtonadmm/internal/ckpt"
	"newtonadmm/internal/cluster"
	"newtonadmm/internal/core"
	"newtonadmm/internal/datasets"
	"newtonadmm/internal/device"
	"newtonadmm/internal/loss"
)

// timingTransport is the bench-owned Transport installed at
// cluster.Config.WrapTransport in traced solves. Each rank's transport is
// used by that rank's goroutine alone, so the counters need no locks; they
// are read after core.Solve returns.
type timingTransport struct {
	cluster.Transport
	tr       *tracer
	traceID  int64
	rankSpan int64
	opened   time.Time
	closed   time.Time

	sendNs, recvNs int64
	sends, recvs   int64
	bytesSent      int64
}

func (t *timingTransport) Send(to int, data []float64) error {
	start := time.Now()
	err := t.Transport.Send(to, data)
	end := time.Now()
	t.sendNs += end.Sub(start).Nanoseconds()
	t.sends++
	t.bytesSent += int64(8 * len(data))
	t.tr.record(0, t.rankSpan, t.traceID, "cluster.send", start, end)
	return err
}

func (t *timingTransport) Recv(from int) ([]float64, error) {
	start := time.Now()
	data, err := t.Transport.Recv(from)
	end := time.Now()
	t.recvNs += end.Sub(start).Nanoseconds()
	t.recvs++
	t.tr.record(0, t.rankSpan, t.traceID, "cluster.recv", start, end)
	return data, err
}

// Close ends the rank's span: cluster.Run closes a rank's transport as
// the last step of that rank's goroutine.
func (t *timingTransport) Close() error {
	err := t.Transport.Close()
	if t.closed.IsZero() {
		t.closed = time.Now()
		t.tr.record(t.rankSpan, t.traceID, t.traceID, fmt.Sprintf("rank.%d", t.Rank()), t.opened, t.closed)
	}
	return err
}

// solveResult is what one core.Solve told the harness.
type solveResult struct {
	Wall     time.Duration
	CPU      time.Duration
	Epochs   int
	Reached  bool // objective <= theta within maxEpochs
	Hash     uint64
	Z        []float64
	Stats    []cluster.NodeStats
	Ranks    []*timingTransport // nil for an untraced solve
	Err      error
	FinalObj float64
}

// solve runs Newton-ADMM on ds until the workload's target. With a tracer
// it installs the timing transport and records train -> rank.<r> ->
// cluster.send / cluster.recv spans; without one nothing is wrapped.
func (w workload) solve(ds *datasets.Dataset, tr *tracer) solveResult {
	cfg := cluster.Config{Ranks: ranks, UseTCP: w.UseTCP}
	var wrapped []*timingTransport
	var root int64
	if tr != nil {
		root = tr.newID()
		wrapped = make([]*timingTransport, ranks)
		cfg.WrapTransport = func(rank int, t cluster.Transport) cluster.Transport {
			wrapped[rank] = &timingTransport{
				Transport: t, tr: tr, traceID: root, rankSpan: tr.newID(), opened: time.Now(),
			}
			return wrapped[rank]
		}
	}
	theta := w.theta(ds.TrainSize())
	cpu0, start := cpuTime(), time.Now()
	res, err := core.Solve(cfg, ds, core.Options{
		Epochs: maxEpochs, Lambda: w.Lambda, TargetObjective: theta,
	})
	end := time.Now()
	out := solveResult{Wall: end.Sub(start), CPU: cpuTime() - cpu0, Ranks: wrapped, Err: err}
	tr.record(root, 0, root, "train", start, end)
	if err != nil {
		return out
	}
	final, _ := res.Trace.Final()
	out.Epochs, out.FinalObj = final.Epoch, final.Objective
	out.Reached = final.Objective <= theta
	out.Z, out.Stats, out.Hash = res.Z, res.Stats, hashFloats(res.Z)
	return out
}

// hashFloats is the checkpoint fingerprint (FNV-1a) over the IEEE bits:
// equal hashes mean bitwise equal weights.
func hashFloats(xs []float64) uint64 {
	f := ckpt.NewFingerprinter()
	for _, x := range xs {
		f.Float(x)
	}
	return f.Sum()
}

// testAccuracy scores weights z on the dataset's test split.
func testAccuracy(ds *datasets.Dataset, z []float64) (float64, error) {
	dev := device.New("bench-eval", 0)
	defer dev.Close()
	prob, err := loss.NewSoftmax(dev, ds.Xtest, ds.Ytest, ds.Classes, 0)
	if err != nil {
		return 0, fmt.Errorf("test accuracy: %w", err)
	}
	return prob.Accuracy(ds.Xtest, ds.Ytest, z), nil
}

// trainSamples collects the timed solves of a training window.
type trainSamples struct {
	Wall, CPU, EpochS, RowsPerS []float64
	Epochs                      []int
	Hashes                      []uint64
	Attempted, Failed           int
	Last                        solveResult
}

func (s *trainSamples) add(ds *datasets.Dataset, r solveResult) {
	s.Attempted++
	s.Last = r
	if r.Err != nil || !r.Reached || r.Epochs == 0 {
		s.Failed++
		return
	}
	sec := r.Wall.Seconds()
	s.Wall = append(s.Wall, sec)
	s.CPU = append(s.CPU, r.CPU.Seconds())
	s.Epochs = append(s.Epochs, r.Epochs)
	s.EpochS = append(s.EpochS, sec/float64(r.Epochs))
	s.RowsPerS = append(s.RowsPerS, float64(ds.TrainSize()*r.Epochs)/sec)
	s.Hashes = append(s.Hashes, r.Hash)
}

// sameCounts reports whether every timed solve took the same number of
// epochs and produced bitwise-identical weights: the repository's
// determinism invariant.
func (s *trainSamples) sameCounts() bool {
	for i := range s.Hashes {
		if s.Hashes[i] != s.Hashes[0] || s.Epochs[i] != s.Epochs[0] {
			return false
		}
	}
	return true
}

// typical is the figure a run reports for a timing it took once per
// solve or per set-up: the lower quartile, not the median. The guest kernel of the
// reference box sometimes leaves both rank threads on one virtual CPU for
// the first second of a solve, the other idle, and that solve takes half
// as long again at unchanged CPU time (README.md, "Steadiness"). With one
// solve in four hit, as on serve-row-open, the median of a run's five is
// from the slow mode in one run of nine and the lower quartile in one of
// fifty.
func typical(timings []float64) float64 { return quantile(timings, 0.25) }

// metrics fills the end-to-end training metrics from the timed solves.
func (s *trainSamples) metrics(m *metricSet, acc float64) {
	m.put("time_to_target_s", "s", typical(s.Wall))
	m.put("epochs_to_target", "count", float64(s.Epochs[0]))
	m.put("epoch_s", "s", typical(s.EpochS))
	m.put("train_cpu_s", "s", typical(s.CPU))
	m.put("test_accuracy", "ratio", acc)
}

// rungs turns one traced solve into the real-run per-layer metrics, per
// epoch and as the maximum over ranks where ranks differ.
func (r solveResult) rungs(m *metricSet) (reconciled bool) {
	ep := float64(r.Epochs)
	var maxCompute, minCompute, maxSend, maxRecv, maxOther, maxComm time.Duration
	var bytes, flops, devBytes, launches, rounds int64
	minCompute = time.Duration(math.MaxInt64)
	reconciled = true
	for i, st := range r.Stats {
		tt := r.Ranks[i]
		rankWall := tt.closed.Sub(tt.opened)
		send, recv := time.Duration(tt.sendNs), time.Duration(tt.recvNs)
		other := rankWall - st.Compute - send - recv
		// The rank's span must account for the solve: its parts may not
		// overlap (other >= 0) and it may not be shorter than the solve
		// by more than 5%.
		if other < 0 || math.Abs(rankWall.Seconds()-r.Wall.Seconds()) > 0.05*r.Wall.Seconds() {
			reconciled = false
		}
		maxCompute, minCompute = max(maxCompute, st.Compute), min(minCompute, st.Compute)
		maxSend, maxRecv, maxOther = max(maxSend, send), max(maxRecv, recv), max(maxOther, other)
		maxComm = max(maxComm, st.CommTime)
		bytes += tt.bytesSent
		flops += st.DevStats.FLOPs
		devBytes += st.DevStats.Bytes
		launches += st.DevStats.Launches
		rounds = max(rounds, int64(st.Rounds))
	}
	ms := func(d time.Duration) float64 { return d.Seconds() * 1e3 / ep }
	m.put("core.compute_ms_per_epoch", "ms", ms(maxCompute))
	m.put("core.rank_skew_ms_per_epoch", "ms", ms(maxCompute-minCompute))
	m.put("core.other_ms_per_epoch", "ms", ms(maxOther))
	m.put("cluster.rounds_per_epoch", "count", float64(rounds)/ep)
	m.put("cluster.bytes_per_epoch", "count", float64(bytes)/ep)
	m.put("cluster.send_ms_per_epoch", "ms", ms(maxSend))
	m.put("cluster.recv_wait_ms_per_epoch", "ms", ms(maxRecv))
	m.put("cluster.modeled_comm_ms_per_epoch", "ms", ms(maxComm))
	m.put("device.launches_per_epoch", "count", float64(launches)/ep)
	m.put("device.flops_per_epoch", "count", float64(flops)/ep)
	m.put("device.bytes_per_epoch", "count", float64(devBytes)/ep)
	m.put("device.gflops", "GFLOP/s", float64(flops)/1e9/maxCompute.Seconds())
	return reconciled
}
