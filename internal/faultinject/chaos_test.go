package faultinject_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"newtonadmm/internal/cluster"
	"newtonadmm/internal/faultinject"
)

// The chaos matrix: kill or wedge every rank at every collective phase,
// on both transports, and assert the liveness contract — every survivor
// exits with a typed error within the deadline, never a hang, never a
// leaked goroutine. Faults are armed deterministically (exact send
// counts, fixed drop targets), so a failing combination replays
// identically.

const (
	chaosRanks = 3
	// chaosTimeout bounds every blocking wait. Generous relative to the
	// ~0 compute the chaos bodies do, so healthy iterations never trip it
	// even under -race scheduling jitter.
	chaosTimeout = 500 * time.Millisecond
)

// A phase body runs at iteration i. Bcast and gather rotate their root
// with i, so every victim sends in every phase: a collective's payload
// is its only message, and a fixed root would leave a non-root victim of
// a bcast (or the root of a gather) nothing to send and nothing to break.
type chaosPhase struct {
	name string
	body func(n *cluster.Node, i int)
}

var chaosPhases = []chaosPhase{
	{"bcast", func(n *cluster.Node, i int) {
		root := i % n.Size()
		v := make([]float64, 4)
		if n.Rank() == root {
			v = []float64{1, 2, 3, 4}
		}
		n.Bcast(root, v)
	}},
	{"gather", func(n *cluster.Node, i int) { n.Gather(i%n.Size(), []float64{float64(n.Rank()), 1}) }},
	{"allreduce-sum", func(n *cluster.Node, i int) { v := []float64{1}; n.AllReduceSum(v) }},
	{"allreduce-max", func(n *cluster.Node, i int) { v := []float64{float64(n.Rank())}; n.AllReduceMax(v) }},
}

func runChaos(t *testing.T, useTCP bool, ph chaosPhase, victim int, fault string) {
	t.Helper()
	cfg := cluster.Config{
		Ranks:             chaosRanks,
		UseTCP:            useTCP,
		Network:           cluster.ZeroCost,
		DeviceWorkers:     1,
		CollectiveTimeout: chaosTimeout,
		WrapTransport: func(rank int, tr cluster.Transport) cluster.Transport {
			if rank != victim {
				return tr
			}
			f := faultinject.WrapTransport(tr)
			switch fault {
			case "crash":
				// Let a few sends through so the crash lands mid-phase,
				// not during the first payload exchange.
				f.CrashAfter(3)
			case "hang":
				// Black-hole one peer: the victim stays connected but a
				// survivor's Recv starves — only the deadline can save it.
				// The all-reduces meet at rank 0 and the other phases'
				// roots rotate, so in every phase the victim sends to rank
				// 0 (or rank 1 when 0 is the victim) and starves it.
				to := 0
				if victim == 0 {
					to = 1
				}
				f.DropTo(to)
			}
			return f
		},
	}
	done := make(chan error, 1)
	go func() {
		_, err := cluster.Run(cfg, func(n *cluster.Node) error {
			for i := 0; i < 20; i++ {
				ph.body(n, i)
			}
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("run with an injected fault reported success")
		}
		if !cluster.IsCommError(err) {
			t.Fatalf("failure not typed (IsCommError=false): %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("cluster hung: fault=%s victim=%d phase=%s", fault, victim, ph.name)
	}
}

func TestChaosEveryRankEveryPhase(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, useTCP := range []bool{false, true} {
		transport := "inproc"
		if useTCP {
			transport = "tcp"
		}
		for _, ph := range chaosPhases {
			for victim := 0; victim < chaosRanks; victim++ {
				for _, fault := range []string{"crash", "hang"} {
					name := fmt.Sprintf("%s/%s/%s-rank%d", transport, ph.name, fault, victim)
					t.Run(name, func(t *testing.T) {
						runChaos(t, useTCP, ph, victim, fault)
					})
				}
			}
		}
	}
	// Liveness half two: after the whole matrix, every accept/read loop
	// and rank goroutine must have drained.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked across chaos matrix: before=%d after=%d", before, runtime.NumGoroutine())
}
