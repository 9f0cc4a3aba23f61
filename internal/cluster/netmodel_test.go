package cluster

import (
	"math"
	"testing"
	"time"
)

func TestHops(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4}
	for n, want := range cases {
		if got := hops(n); got != want {
			t.Fatalf("hops(%d)=%d, want %d", n, got, want)
		}
	}
}

func TestTransferTime(t *testing.T) {
	m := NetworkModel{Latency: 0, Bandwidth: 1e9} // 1 GB/s
	if got := m.transfer(1e9); got != time.Second {
		t.Fatalf("transfer(1GB)=%v, want 1s", got)
	}
	if got := m.transfer(0); got != 0 {
		t.Fatalf("transfer(0)=%v, want 0", got)
	}
	inf := NetworkModel{Bandwidth: math.Inf(1)}
	if got := inf.transfer(1e12); got != 0 {
		t.Fatalf("infinite bandwidth transfer=%v, want 0", got)
	}
}

func TestCollectiveCostsScaleWithRanksAndBytes(t *testing.T) {
	m := Ethernet1G
	// More ranks cannot be cheaper.
	for _, bytes := range []int{0, 1 << 10, 1 << 20} {
		prev := time.Duration(0)
		for _, n := range []int{2, 4, 8, 16} {
			c := m.AllReduceCost(n, bytes)
			if c < prev {
				t.Fatalf("AllReduceCost(%d,%d)=%v < previous %v", n, bytes, c, prev)
			}
			prev = c
		}
	}
	// More bytes cannot be cheaper.
	for _, n := range []int{2, 8} {
		if m.BcastCost(n, 1<<20) < m.BcastCost(n, 1<<10) {
			t.Fatal("BcastCost decreased with payload size")
		}
		if m.GatherCost(n, 1<<20) < m.GatherCost(n, 1<<10) {
			t.Fatal("GatherCost decreased with payload size")
		}
	}
}

func TestSingleRankCostsAreZero(t *testing.T) {
	m := Ethernet10G
	if m.BcastCost(1, 1<<20) != 0 || m.GatherCost(1, 1<<20) != 0 ||
		m.AllReduceCost(1, 1<<20) != 0 {
		t.Fatal("single-rank collectives must be free")
	}
}

func TestZeroCostModel(t *testing.T) {
	if ZeroCost.AllReduceCost(16, 1<<30) != 0 {
		t.Fatal("ZeroCost model charged time")
	}
}

func TestSlowerNetworksCostMore(t *testing.T) {
	// The ablation-network experiment depends on this ordering.
	bytes := 1 << 20
	n := 8
	ib := InfiniBand100G.AllReduceCost(n, bytes)
	e10 := Ethernet10G.AllReduceCost(n, bytes)
	e1 := Ethernet1G.AllReduceCost(n, bytes)
	wan := WAN.AllReduceCost(n, bytes)
	if !(ib < e10 && e10 < e1 && e1 < wan) {
		t.Fatalf("cost ordering violated: ib=%v e10=%v e1=%v wan=%v", ib, e10, e1, wan)
	}
}

func TestModelString(t *testing.T) {
	s := InfiniBand100G.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}
