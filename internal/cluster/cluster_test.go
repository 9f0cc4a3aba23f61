package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"newtonadmm/internal/wire"
)

// runBoth runs the same SPMD body on the inproc and TCP transports.
func runBoth(t *testing.T, ranks int, body func(n *Node) error) {
	t.Helper()
	for _, useTCP := range []bool{false, true} {
		name := "inproc"
		if useTCP {
			name = "tcp"
		}
		_, err := Run(Config{Ranks: ranks, UseTCP: useTCP, Network: ZeroCost, DeviceWorkers: 1}, body)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestBcast(t *testing.T) {
	runBoth(t, 4, func(n *Node) error {
		vec := make([]float64, 3)
		if n.Rank() == 2 {
			vec = []float64{1, 2, 3}
		}
		n.Bcast(2, vec)
		for i, want := range []float64{1, 2, 3} {
			if vec[i] != want {
				return fmt.Errorf("rank %d: bcast vec=%v", n.Rank(), vec)
			}
		}
		return nil
	})
}

func TestGatherOrdersByRank(t *testing.T) {
	runBoth(t, 4, func(n *Node) error {
		vec := []float64{float64(n.Rank()), float64(n.Rank() * 10)}
		got := n.Gather(0, vec)
		if n.Rank() != 0 {
			if got != nil {
				return fmt.Errorf("non-root got %v", got)
			}
			return nil
		}
		for r := 0; r < 4; r++ {
			if got[r][0] != float64(r) || got[r][1] != float64(r*10) {
				return fmt.Errorf("gather[%d]=%v", r, got[r])
			}
		}
		return nil
	})
}

func TestAllReduceSum(t *testing.T) {
	runBoth(t, 5, func(n *Node) error {
		vec := []float64{1, float64(n.Rank())}
		n.AllReduceSum(vec)
		// sum over ranks: [5, 0+1+2+3+4=10]
		if vec[0] != 5 || vec[1] != 10 {
			return fmt.Errorf("rank %d allreduce got %v", n.Rank(), vec)
		}
		return nil
	})
}

func TestAllReduceMax(t *testing.T) {
	runBoth(t, 4, func(n *Node) error {
		vec := []float64{float64(-n.Rank()), float64(n.Rank())}
		n.AllReduceMax(vec)
		if vec[0] != 0 || vec[1] != 3 {
			return fmt.Errorf("rank %d allreduce max got %v", n.Rank(), vec)
		}
		return nil
	})
}

func TestAllReduceEqualsGatherSumBcastProperty(t *testing.T) {
	// Algebraic identity: allreduce-sum == gather to root, sum, bcast.
	rng := rand.New(rand.NewSource(60))
	data := make([][]float64, 4)
	for r := range data {
		data[r] = []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	runBoth(t, 4, func(n *Node) error {
		viaAll := append([]float64(nil), data[n.Rank()]...)
		n.AllReduceSum(viaAll)

		viaGather := append([]float64(nil), data[n.Rank()]...)
		parts := n.Gather(0, viaGather)
		sum := make([]float64, 3)
		if n.Rank() == 0 {
			for _, p := range parts {
				for i := range sum {
					sum[i] += p[i]
				}
			}
		}
		n.Bcast(0, sum)
		for i := range sum {
			if math.Abs(sum[i]-viaAll[i]) > 1e-12 {
				return fmt.Errorf("identity violated at %d: %v vs %v", i, sum[i], viaAll[i])
			}
		}
		return nil
	})
}

func TestSequentialCollectivesInterleave(t *testing.T) {
	// Repeated mixed collectives must stay matched (pairwise FIFO).
	runBoth(t, 3, func(n *Node) error {
		for iter := 0; iter < 20; iter++ {
			v := []float64{float64(iter)}
			n.Bcast(iter%3, v)
			if v[0] != float64(iter) {
				return fmt.Errorf("iter %d: bcast corrupted: %v", iter, v)
			}
			s := []float64{1}
			n.AllReduceSum(s)
			if s[0] != 3 {
				return fmt.Errorf("iter %d: allreduce=%v", iter, s)
			}
			n.AllReduceSum(nil)
		}
		return nil
	})
}

func TestSingleRankCollectivesNoop(t *testing.T) {
	_, err := Run(Config{Ranks: 1, Network: ZeroCost, DeviceWorkers: 1}, func(n *Node) error {
		v := []float64{7}
		n.AllReduceSum(v)
		n.Bcast(0, v)
		n.AllReduceSum(nil)
		g := n.Gather(0, v)
		if v[0] != 7 || g[0][0] != 7 {
			return fmt.Errorf("single-rank collectives corrupted data")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBodyErrorPropagates(t *testing.T) {
	_, err := Run(Config{Ranks: 3, Network: ZeroCost, DeviceWorkers: 1}, func(n *Node) error {
		if n.Rank() == 1 {
			return errors.New("boom")
		}
		return nil
	})
	if err == nil || !errorsContains(err, "boom") {
		t.Fatalf("expected body error, got %v", err)
	}
}

func TestBodyPanicRecovered(t *testing.T) {
	_, err := Run(Config{Ranks: 2, Network: ZeroCost, DeviceWorkers: 1}, func(n *Node) error {
		if n.Rank() == 0 {
			panic("kaboom")
		}
		return nil
	})
	if err == nil || !errorsContains(err, "kaboom") {
		t.Fatalf("expected panic error, got %v", err)
	}
}

func TestRankDeathUnblocksPeers(t *testing.T) {
	// Rank 1 dies before its first collective; the others are blocked in
	// an allreduce and must fail rather than hang.
	done := make(chan error, 1)
	go func() {
		_, err := Run(Config{Ranks: 3, Network: ZeroCost, DeviceWorkers: 1}, func(n *Node) error {
			if n.Rank() == 1 {
				return errors.New("early death")
			}
			n.AllReduceSum(nil)
			return nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("expected an error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cluster hung after rank death")
	}
}

func TestRecvDeadlineFiresTyped(t *testing.T) {
	// No rank ever sends to us: a Recv with a deadline must fail with
	// ErrCollectiveTimeout, promptly, on both transports.
	const timeout = 100 * time.Millisecond
	inproc := NewInprocGroupTimeout(2, timeout)
	tcp, err := NewTCPGroupTimeout(2, 0, timeout)
	if err != nil {
		t.Fatal(err)
	}
	for name, group := range map[string][]Transport{"inproc": inproc, "tcp": tcp} {
		start := time.Now()
		_, err := group[0].Recv(1)
		elapsed := time.Since(start)
		if !errors.Is(err, ErrCollectiveTimeout) {
			t.Fatalf("%s: got %v, want ErrCollectiveTimeout", name, err)
		}
		if elapsed > 10*timeout {
			t.Fatalf("%s: deadline took %v, budget %v", name, elapsed, timeout)
		}
		for _, tr := range group {
			tr.Close()
		}
	}
}

func TestAbortUnblocksPendingRecv(t *testing.T) {
	// A blocked Recv with no deadline must still exit promptly when any
	// rank broadcasts an abort — the coordinated-abort liveness guarantee.
	inproc := NewInprocGroup(2)
	tcp, err := NewTCPGroup(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for name, group := range map[string][]Transport{"inproc": inproc, "tcp": tcp} {
		done := make(chan error, 1)
		go func() {
			_, err := group[0].Recv(1)
			done <- err
		}()
		time.Sleep(20 * time.Millisecond) // let the Recv block
		group[1].Abort()
		select {
		case err := <-done:
			if !errors.Is(err, ErrAborted) {
				t.Fatalf("%s: got %v, want ErrAborted", name, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: abort did not unblock pending Recv", name)
		}
		for _, tr := range group {
			tr.Close()
		}
	}
}

func TestRunAggregatesAllRankErrors(t *testing.T) {
	// Two ranks fail independently; errors.Join must surface both, so the
	// root cause is never hidden by a casualty with a lower rank number.
	_, err := Run(Config{Ranks: 4, Network: ZeroCost, DeviceWorkers: 1}, func(n *Node) error {
		switch n.Rank() {
		case 0:
			return errors.New("casualty-zero")
		case 3:
			return errors.New("root-cause-three")
		}
		return nil
	})
	if err == nil {
		t.Fatal("expected an error")
	}
	if !errorsContains(err, "casualty-zero") || !errorsContains(err, "root-cause-three") {
		t.Fatalf("aggregated error lost a rank's failure: %v", err)
	}
}

func TestDialDeadAddressFailsFast(t *testing.T) {
	// A dial to a port nothing listens on must fail promptly with a typed
	// error, not wait out the kernel connect timeout.
	ep := &tcpEndpoint{
		rank: 0, size: 2,
		addrs:   []string{"", "127.0.0.1:1"}, // port 1: nothing listens
		timeout: 200 * time.Millisecond,
		conns:   make(map[int]net.Conn),
	}
	start := time.Now()
	_, err := ep.dial(1)
	if err == nil {
		t.Fatal("dial to dead address succeeded")
	}
	if !errors.Is(err, ErrPeerLost) {
		t.Fatalf("dial error not typed: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("dial took %v, deadline not applied", elapsed)
	}
}

func TestTCPCloseDrainsGoroutinesAndUnblocksRecv(t *testing.T) {
	// Teardown invariants: Close during an in-flight collective unblocks
	// every pending Recv with ErrPeerLost, and after all endpoints close,
	// the goroutine count settles back (wg-drained accept/read loops).
	before := runtime.NumGoroutine()
	group, err := NewTCPGroup(3, 0)
	if err != nil {
		t.Fatal(err)
	}
	var recvErrs [3]error
	var wg sync.WaitGroup
	for i, tr := range group {
		wg.Add(1)
		go func(i int, tr Transport) {
			defer wg.Done()
			_, recvErrs[i] = tr.Recv((i + 1) % 3) // blocks: nobody sends
		}(i, tr)
	}
	time.Sleep(20 * time.Millisecond) // let all Recvs block
	for _, tr := range group {
		if err := tr.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
	}
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	select {
	case <-waitDone:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not unblock pending Recvs")
	}
	for i, err := range recvErrs {
		if !errors.Is(err, ErrPeerLost) {
			t.Fatalf("rank %d recv after close: got %v, want ErrPeerLost", i, err)
		}
	}
	// Double Close must be a no-op, not a panic.
	for _, tr := range group {
		if err := tr.Close(); err != nil {
			t.Fatalf("second close: %v", err)
		}
	}
	// All accept/read goroutines must have drained.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
}

// peerFrame builds one training frame; mutate, when set, edits the
// finished frame (its 20-byte header and payload) in place.
func peerFrame(op wire.Op, corr uint64, vals []float64, mutate func(f []byte) []byte) []byte {
	var e wire.Encoder
	e.Begin(op, corr)
	e.Vector(vals)
	f := append([]byte(nil), e.Bytes()...)
	if mutate != nil {
		f = mutate(f)
	}
	return f
}

func TestHostileFramesDropConnection(t *testing.T) {
	// Protocol regressions: a connection that breaks the training wire's
	// rules is dropped, the rank it claimed is lost to its receivers
	// (Recv fails with ErrPeerLost instead of trusting the stream), and
	// the forged payload {13} never comes out as data. Rows marked bound
	// first open with a hello from rank 1 and deliver one legitimate
	// vector {42}.
	forged := []float64{13}
	cases := []struct {
		name  string
		bound bool
		frame []byte
	}{
		{"sender-switch", true, peerFrame(wire.OpVector, 2, forged, nil)},
		{"rank-out-of-range", true, peerFrame(wire.OpVector, 1<<40, forged, nil)},
		{"bad-magic", true, peerFrame(wire.OpVector, 1, forged, func(f []byte) []byte { f[0] = 'X'; return f })},
		{"unknown-flag-bit", true, peerFrame(wire.OpVector, 1, forged, func(f []byte) []byte { f[6] = 1 << 2; return f })},
		{"trace-flag", true, peerFrame(wire.OpVector, 1, forged, func(f []byte) []byte { f[6] = byte(wire.FlagTrace); return f })},
		{"serving-opcode", true, peerFrame(wire.OpPredict, 1, forged, nil)},
		{"second-hello", true, peerFrame(wire.OpHello, 1, nil, nil)},
		{"vector-before-hello", false, peerFrame(wire.OpVector, 1, forged, nil)},
		{"ragged-payload", true, peerFrame(wire.OpVector, 1, forged, func(f []byte) []byte {
			binary.LittleEndian.PutUint32(f[16:20], 12)
			return append(f, 0, 0, 0, 0)
		})},
		{"oversized", true, peerFrame(wire.OpVector, 1, nil, func(f []byte) []byte {
			binary.LittleEndian.PutUint32(f[16:20], wire.MaxPayload+1)
			return f
		})},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			group, err := NewTCPGroup(3, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				for _, tr := range group {
					tr.Close()
				}
			}()
			ep := group[0].(*tcpEndpoint)
			conn, err := net.Dial("tcp", ep.addrs[0])
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			var stream []byte
			if c.bound {
				stream = append(peerFrame(wire.OpHello, 1, nil, nil), peerFrame(wire.OpVector, 1, []float64{42}, nil)...)
			}
			if _, err := conn.Write(append(stream, c.frame...)); err != nil {
				t.Fatal(err)
			}
			if c.bound {
				if got, err := ep.Recv(1); err != nil || len(got) != 1 || got[0] != 42 {
					t.Fatalf("legitimate frame lost: %v %v", got, err)
				}
			}

			type result struct {
				data []float64
				err  error
			}
			done := make(chan result, 1)
			go func() {
				data, err := ep.Recv(1)
				done <- result{data, err}
			}()
			select {
			case r := <-done:
				if r.data != nil {
					t.Fatalf("forged payload came out as data: %v", r.data)
				}
				if !errors.Is(r.err, ErrPeerLost) {
					t.Fatalf("recv after protocol violation: got %v, want ErrPeerLost", r.err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("protocol violation did not poison the sender queue")
			}
			for r, q := range ep.queues {
				if len(q) != 0 {
					t.Fatalf("forged payload queued as data from rank %d", r)
				}
			}

			conn.SetReadDeadline(time.Now().Add(10 * time.Second))
			_, err = conn.Read(make([]byte, 1))
			if ne, ok := err.(net.Error); err == nil || (ok && ne.Timeout()) {
				t.Fatalf("connection not dropped: read returned %v", err)
			}
		})
	}
}

func TestForgedClaimLosesRankWithoutPanic(t *testing.T) {
	// A forged connection claims rank 1 and breaks the protocol while
	// rank 1's genuine connection is live. Rank 1 is lost to rank 0, and
	// the genuine connection's next frame must neither come out as data
	// nor crash the process by sending on a queue the forged connection's
	// read loop gave up.
	group, err := NewTCPGroup(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tr := range group {
			tr.Close()
		}
	}()
	ep := group[0].(*tcpEndpoint)
	conn, err := net.Dial("tcp", ep.addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	forged := append(peerFrame(wire.OpHello, 1, nil, nil), peerFrame(wire.OpPredict, 1, []float64{13}, nil)...)
	if _, err := conn.Write(forged); err != nil {
		t.Fatal(err)
	}
	// The read loop marks the rank lost before it drops the connection.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("forged connection not dropped")
	}
	if err := group[1].Send(0, []float64{7}); err != nil {
		t.Fatal(err)
	}
	// Give the genuine read loop time to take the frame.
	time.Sleep(100 * time.Millisecond)
	for i := 0; i < 2; i++ {
		if data, err := ep.Recv(1); data != nil || !errors.Is(err, ErrPeerLost) {
			t.Fatalf("recv %d from the lost rank: got %v %v, want ErrPeerLost", i, data, err)
		}
	}
}

func TestSendOverFrameBoundFailsLocally(t *testing.T) {
	// A vector over wire.MaxPayload is the caller's error: Send fails
	// before writing, with a plain error naming the bound that RunRestart
	// will not retry, and the peer's connection carries on untouched.
	group, err := NewTCPGroupTimeout(2, 0, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, tr := range group {
			tr.Close()
		}
	}()
	err = group[0].Send(1, make([]float64, wire.MaxPayload/8+1))
	if err == nil {
		t.Fatal("oversized send succeeded")
	}
	if IsCommError(err) {
		t.Fatalf("oversized send reported as a comm error (would be retried): %v", err)
	}
	if !errorsContains(err, fmt.Sprint(wire.MaxPayload)) {
		t.Fatalf("error does not name the %d-byte bound: %v", wire.MaxPayload, err)
	}
	if err := group[0].Send(1, []float64{7}); err != nil {
		t.Fatalf("send after the refused one: %v", err)
	}
	if got, err := group[1].Recv(0); err != nil || len(got) != 1 || got[0] != 7 {
		t.Fatalf("receiver saw a broken stream: %v %v", got, err)
	}
}

func TestVirtualClockAdvancesByModel(t *testing.T) {
	// With a pure-latency network, k empty allreduces on n ranks advance
	// the clock by exactly k * AllReduceCost(n, 0) plus measured compute.
	model := NetworkModel{Name: "lat-only", Latency: time.Millisecond, Bandwidth: math.Inf(1)}
	const k, ranks = 5, 4
	stats, err := Run(Config{Ranks: ranks, Network: model, DeviceWorkers: 1}, func(n *Node) error {
		for i := 0; i < k; i++ {
			n.AllReduceSum(nil)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wantComm := time.Duration(k) * model.AllReduceCost(ranks, 0)
	for _, s := range stats {
		if s.CommTime != wantComm {
			t.Fatalf("rank %d comm time %v, want %v", s.Rank, s.CommTime, wantComm)
		}
		if s.Clock < wantComm {
			t.Fatalf("rank %d clock %v below comm time %v", s.Rank, s.Clock, wantComm)
		}
		if s.Rounds != k {
			t.Fatalf("rank %d rounds %d, want %d", s.Rank, s.Rounds, k)
		}
	}
}

// spin burns d of wall time as this rank's compute.
func spin(d time.Duration) {
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
	}
}

func TestClocksAgreeAfterCollective(t *testing.T) {
	// Unequal compute: rank r spins r*2ms before the collective. Each
	// payload carries its sender's clock, so every rank leaves at the
	// BSP maximum plus the cost: equal clocks, none below the slowest
	// rank's spin.
	const ranks = 4
	slowest := (ranks - 1) * 2 * time.Millisecond
	for _, tc := range []struct {
		name string
		run  func(n *Node)
	}{
		{"allreduce-sum", func(n *Node) { n.AllReduceSum([]float64{1}) }},
		{"allreduce-max", func(n *Node) { n.AllReduceMax([]float64{1}) }},
		{"gather-bcast", func(n *Node) {
			n.Gather(0, []float64{1})
			if n.Rank() == 0 {
				spin(20 * time.Millisecond) // the root's z-update
			}
			n.Bcast(0, []float64{1})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stats, err := Run(Config{Ranks: ranks, Network: InfiniBand100G, DeviceWorkers: 1}, func(n *Node) error {
				spin(time.Duration(n.Rank()) * 2 * time.Millisecond)
				tc.run(n)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range stats[1:] {
				if s.Clock != stats[0].Clock {
					t.Fatalf("clocks diverged: rank %d at %v, rank 0 at %v", s.Rank, s.Clock, stats[0].Clock)
				}
			}
			if stats[0].Clock < slowest {
				t.Fatalf("clock %v does not reflect the slowest rank's %v", stats[0].Clock, slowest)
			}
		})
	}
	t.Run("bare-bcast", func(t *testing.T) {
		// The root of a bare broadcast hears from no rank: its clock
		// advances by the cost alone, while a receiver ends at the later
		// of its own clock and the root's, plus the cost. The root sends
		// before any receiver spins, so each receiver's clock is later.
		sent := make(chan struct{})
		stats, err := Run(Config{Ranks: ranks, Network: InfiniBand100G, DeviceWorkers: 1}, func(n *Node) error {
			if n.Rank() == 0 {
				close(sent)
			} else {
				<-sent
				spin(time.Duration(n.Rank()) * 5 * time.Millisecond)
			}
			n.Bcast(0, []float64{1})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if root := stats[0]; root.Clock != root.Compute+root.CommTime {
			t.Fatalf("root clock %v, want its own compute %v plus the cost %v", root.Clock, root.Compute, root.CommTime)
		}
		for _, s := range stats[1:] {
			if s.Clock <= stats[0].Clock {
				t.Fatalf("rank %d clock %v not past the root's %v", s.Rank, s.Clock, stats[0].Clock)
			}
		}
	})
}

// forgeTransport rewrites every payload it sends.
type forgeTransport struct {
	Transport
	forge func(data []float64) []float64
}

func (f forgeTransport) Send(to int, data []float64) error {
	return f.Transport.Send(to, f.forge(data))
}

func TestHostileStampFailsCollective(t *testing.T) {
	// Peer framing admits an empty vector and any float, so a stamp can
	// be missing, NaN or negative. The receiver must fail the collective
	// with an error naming the sender, not panic or corrupt its clock.
	restamp := func(v float64) func([]float64) []float64 {
		return func(data []float64) []float64 {
			data = append([]float64(nil), data...)
			data[len(data)-1] = v
			return data
		}
	}
	const want = "rank 1 sent a message without a valid clock stamp"
	for _, tc := range []struct {
		name  string
		forge func([]float64) []float64
	}{
		{"empty", func([]float64) []float64 { return nil }},
		{"nan", restamp(math.NaN())},
		{"negative", restamp(-1)},
	} {
		for _, useTCP := range []bool{false, true} {
			_, err := Run(Config{
				Ranks: 2, UseTCP: useTCP, Network: ZeroCost, DeviceWorkers: 1, CollectiveTimeout: 10 * time.Second,
				WrapTransport: func(rank int, tr Transport) Transport {
					if rank == 1 {
						return forgeTransport{tr, tc.forge}
					}
					return tr
				},
			}, func(n *Node) error {
				n.AllReduceSum([]float64{1})
				return nil
			})
			if !errorsContains(err, want) || errorsContains(err, "panic") {
				t.Errorf("%s tcp=%v: err=%v, want an error containing %q", tc.name, useTCP, err, want)
			}
		}
	}
}

func TestMaxClock(t *testing.T) {
	stats := []NodeStats{{Clock: 5}, {Clock: 9}, {Clock: 3}}
	if got := MaxClock(stats); got != 9 {
		t.Fatalf("MaxClock=%v, want 9", got)
	}
	if got := MaxClock(nil); got != 0 {
		t.Fatalf("MaxClock(nil)=%v, want 0", got)
	}
}

func TestBcastSizeMismatchFails(t *testing.T) {
	_, err := Run(Config{Ranks: 2, Network: ZeroCost, DeviceWorkers: 1}, func(n *Node) error {
		if n.Rank() == 0 {
			n.Bcast(0, []float64{1, 2, 3})
		} else {
			n.Bcast(0, make([]float64, 2))
		}
		return nil
	})
	if err == nil {
		t.Fatal("size mismatch not detected")
	}
}

func errorsContains(err error, substr string) bool {
	return err != nil && (len(err.Error()) >= len(substr)) && (func() bool {
		s := err.Error()
		for i := 0; i+len(substr) <= len(s); i++ {
			if s[i:i+len(substr)] == substr {
				return true
			}
		}
		return false
	})()
}
