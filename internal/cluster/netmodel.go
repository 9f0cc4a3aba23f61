package cluster

import (
	"fmt"
	"math"
	"time"
)

// NetworkModel is a latency/bandwidth model of the interconnect.
type NetworkModel struct {
	Name string
	// Latency is the per-hop message latency.
	Latency time.Duration
	// Bandwidth is the link bandwidth in bytes per second.
	Bandwidth float64
}

// Preset interconnects. InfiniBand100G approximates the paper's testbed.
var (
	InfiniBand100G = NetworkModel{Name: "infiniband-100g", Latency: 2 * time.Microsecond, Bandwidth: 100e9 / 8}
	Ethernet10G    = NetworkModel{Name: "ethernet-10g", Latency: 50 * time.Microsecond, Bandwidth: 10e9 / 8}
	Ethernet1G     = NetworkModel{Name: "ethernet-1g", Latency: 200 * time.Microsecond, Bandwidth: 1e9 / 8}
	WAN            = NetworkModel{Name: "wan", Latency: 20 * time.Millisecond, Bandwidth: 100e6 / 8}
	ZeroCost       = NetworkModel{Name: "zero-cost", Latency: 0, Bandwidth: math.Inf(1)}
)

// hops returns the tree depth for n ranks: ceil(log2(n)).
func hops(n int) int {
	if n <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(n))))
}

func (m NetworkModel) transfer(bytes int) time.Duration {
	if bytes <= 0 || math.IsInf(m.Bandwidth, 1) || m.Bandwidth <= 0 {
		return 0
	}
	return time.Duration(float64(bytes) / m.Bandwidth * float64(time.Second))
}

// BcastCost models a binomial-tree broadcast of one payload to n ranks:
// the payload traverses ceil(log2 n) levels.
func (m NetworkModel) BcastCost(n, bytes int) time.Duration {
	h := hops(n)
	return time.Duration(h)*m.Latency + time.Duration(h)*m.transfer(bytes)
}

// GatherCost models a tree gather of one payload per rank toward the root:
// tree latency plus the (n-1) payloads that must cross the root link.
func (m NetworkModel) GatherCost(n, bytes int) time.Duration {
	if n <= 1 {
		return 0
	}
	return time.Duration(hops(n))*m.Latency + m.transfer((n-1)*bytes)
}

// AllReduceCost models reduce-then-broadcast trees: twice the tree latency
// plus two traversals of the payload.
func (m NetworkModel) AllReduceCost(n, bytes int) time.Duration {
	if n <= 1 {
		return 0
	}
	return 2*time.Duration(hops(n))*m.Latency + 2*m.transfer(bytes)
}

func (m NetworkModel) String() string {
	return fmt.Sprintf("%s (lat %v, bw %.1f Gbps)", m.Name, m.Latency, m.Bandwidth*8/1e9)
}
