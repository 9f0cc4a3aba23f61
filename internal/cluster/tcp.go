package cluster

import (
	"fmt"
	"net"
	"sync"
	"time"

	"newtonadmm/internal/wire"
)

// defaultDialTimeout bounds connection establishment when no collective
// timeout is configured, so a dead address fails fast instead of waiting
// out the kernel's connect timeout.
const defaultDialTimeout = 10 * time.Second

// tcpEndpoint is a Transport over real TCP sockets: each rank listens on
// its own port, outbound connections are dialed eagerly (full mesh) and
// open with a hello, and payloads travel as NAWP frames (internal/wire,
// DESIGN.md "Binary data plane"): OpHello, OpAbort and OpVector, each
// carrying the sender's rank in the correlation field.
// Incoming frames are demultiplexed into per-sender queues so Recv(from)
// preserves pairwise ordering. When a peer disconnects, it is marked
// lost so blocked receivers fail instead of hanging — giving the SPMD
// runtime liveness when a rank dies mid-protocol. A hung-but-connected
// peer is covered by the receive deadline instead, and a coordinated
// abort frame poisons the whole endpoint at once.
type tcpEndpoint struct {
	rank, size int
	addrs      []string
	listener   net.Listener
	timeout    time.Duration // recv deadline, write deadline, dial timeout

	mu      sync.Mutex
	conns   map[int]net.Conn // cached outbound connections
	inbound []net.Conn       // accepted connections (closed on teardown)

	// queues are never closed: any read loop claiming a rank may send
	// on its queue, so loss is a separate signal, closed once.
	queues    []chan []float64
	lost      []chan struct{}
	lostOnce  []sync.Once
	closed    chan struct{}
	closeOnce sync.Once
	closeErr  error
	aborted   chan struct{}
	abortOnce sync.Once
	wg        sync.WaitGroup
}

// NewTCPGroup creates n ranks listening on consecutive loopback ports
// starting at basePort, with no receive deadline. With basePort <= 0 the
// kernel picks free ports. All ranks live in the calling process (each
// typically driven by its own goroutine), but every payload crosses a
// real TCP socket.
func NewTCPGroup(n, basePort int) ([]Transport, error) {
	return NewTCPGroupTimeout(n, basePort, 0)
}

// NewTCPGroupTimeout is NewTCPGroup with a deadline: with timeout > 0,
// Recv fails with ErrCollectiveTimeout after waiting that long, frame
// writes carry a write deadline (a stalled peer cannot wedge Send), and
// dials are bounded by the same timeout.
func NewTCPGroupTimeout(n, basePort int, timeout time.Duration) ([]Transport, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: group size must be positive")
	}
	eps := make([]*tcpEndpoint, n)
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		addr := "127.0.0.1:0"
		if basePort > 0 {
			addr = fmt.Sprintf("127.0.0.1:%d", basePort+i)
		}
		l, err := net.Listen("tcp", addr)
		if err != nil {
			for j := 0; j < i; j++ {
				eps[j].Close()
			}
			return nil, fmt.Errorf("cluster: rank %d listen: %w", i, err)
		}
		addrs[i] = l.Addr().String()
		ep := &tcpEndpoint{
			rank: i, size: n,
			listener: l,
			timeout:  timeout,
			conns:    make(map[int]net.Conn),
			queues:   make([]chan []float64, n),
			lost:     make([]chan struct{}, n),
			lostOnce: make([]sync.Once, n),
			closed:   make(chan struct{}),
			aborted:  make(chan struct{}),
		}
		for j := 0; j < n; j++ {
			ep.queues[j] = make(chan []float64, 8)
			ep.lost[j] = make(chan struct{})
		}
		eps[i] = ep
	}
	for _, ep := range eps {
		ep.addrs = addrs
		ep.wg.Add(1)
		go ep.acceptLoop()
	}
	// Eagerly build the full mesh so a rank that dies before sending still
	// has live connections whose teardown unblocks its peers.
	for _, ep := range eps {
		for to := 0; to < n; to++ {
			if to == ep.rank {
				continue
			}
			if err := ep.hello(to); err != nil {
				for _, e := range eps {
					e.Close()
				}
				return nil, err
			}
		}
	}
	out := make([]Transport, n)
	for i, ep := range eps {
		out[i] = ep
	}
	return out, nil
}

func (e *tcpEndpoint) Rank() int { return e.rank }
func (e *tcpEndpoint) Size() int { return e.size }

func (e *tcpEndpoint) acceptLoop() {
	defer e.wg.Done()
	for {
		conn, err := e.listener.Accept()
		if err != nil {
			return // listener closed
		}
		// A connection accepted while Close runs would miss Close's sweep
		// of inbound and leave its read loop waiting on a live peer.
		e.mu.Lock()
		select {
		case <-e.closed:
			e.mu.Unlock()
			conn.Close()
			return
		default:
		}
		e.inbound = append(e.inbound, conn)
		e.mu.Unlock()
		e.wg.Add(1)
		go e.readLoop(conn)
	}
}

// markLost marks the sender as disconnected exactly once.
func (e *tcpEndpoint) markLost(sender int) {
	e.lostOnce[sender].Do(func() { close(e.lost[sender]) })
}

// abortLocal poisons this endpoint: pending and future Recvs fail with
// ErrAborted.
func (e *tcpEndpoint) abortLocal() {
	e.abortOnce.Do(func() { close(e.aborted) })
}

// readLoop demultiplexes one inbound connection. Its first frame must
// be a hello, whose correlation field names the sending rank; every later
// frame must repeat that rank. Any violation — a framing error, flags, a
// foreign opcode, another rank, a vector that is not whole float64s —
// drops the connection, and the claimed sender is marked lost with it,
// so its Recvs fail with ErrPeerLost instead of trusting the stream.
// Once a rank is lost, no read loop queues more data from it — not even
// its genuine connection, when a forged one claimed the rank and broke
// the protocol.
func (e *tcpEndpoint) readLoop(conn net.Conn) {
	defer e.wg.Done()
	defer conn.Close()
	sender := -1
	defer func() {
		if sender >= 0 {
			e.markLost(sender)
		}
	}()
	fr := wire.NewReader(conn)
	for {
		h, payload, err := fr.Next()
		if err != nil || h.Flags != 0 || h.Corr >= uint64(e.size) || (sender >= 0 && int(h.Corr) != sender) {
			return
		}
		first := sender < 0
		sender = int(h.Corr)
		switch {
		case first && h.Op == wire.OpHello:
		case first:
			return // nothing may precede the hello
		case h.Op == wire.OpAbort:
			e.abortLocal()
		case h.Op == wire.OpVector:
			data, err := wire.DecodeVector(payload)
			if err != nil {
				return
			}
			select { // first: with room in the queue, one select may pick either
			case <-e.lost[sender]:
				return
			default:
			}
			select {
			case e.queues[sender] <- data:
			case <-e.lost[sender]:
				return
			case <-e.closed:
				return
			}
		default:
			return // a serving opcode or a second hello
		}
	}
}

func (e *tcpEndpoint) dialTimeout() time.Duration {
	if e.timeout > 0 {
		return e.timeout
	}
	return defaultDialTimeout
}

func (e *tcpEndpoint) dial(to int) (net.Conn, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if c, ok := e.conns[to]; ok {
		return c, nil
	}
	c, err := net.DialTimeout("tcp", e.addrs[to], e.dialTimeout())
	if err != nil {
		return nil, fmt.Errorf("cluster: rank %d dial %d: %w (%v)", e.rank, to, ErrPeerLost, err)
	}
	e.conns[to] = c
	return c, nil
}

// write frames one peer message (op, this rank, data) and sends it on
// the shared conn under e.mu with a write deadline, so a stalled peer
// whose TCP window is full cannot wedge the caller while it holds the
// lock. Each frame is a fresh buffer: one retained per endpoint kept
// peak RSS higher on train-sparse-tcp for no time gain.
func (e *tcpEndpoint) write(conn net.Conn, op wire.Op, data []float64) error {
	var enc wire.Encoder
	enc.Begin(op, uint64(e.rank))
	enc.Vector(data)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.timeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(e.timeout))
		defer conn.SetWriteDeadline(time.Time{})
	}
	_, err := conn.Write(enc.Bytes())
	return err
}

func (e *tcpEndpoint) hello(to int) error {
	conn, err := e.dial(to)
	if err != nil {
		return err
	}
	if err := e.write(conn, wire.OpHello, nil); err != nil {
		return fmt.Errorf("cluster: rank %d hello to %d: %w (%v)", e.rank, to, ErrPeerLost, err)
	}
	return nil
}

// Abort broadcasts an abort frame to every peer (best effort, bounded by
// the write deadline) and poisons the local endpoint, so every rank's
// blocked Recv — here and remote — exits promptly with ErrAborted.
func (e *tcpEndpoint) Abort() {
	for to := 0; to < e.size; to++ {
		if to == e.rank {
			continue
		}
		e.mu.Lock()
		conn, ok := e.conns[to]
		e.mu.Unlock()
		if !ok {
			continue
		}
		_ = e.write(conn, wire.OpAbort, nil)
	}
	e.abortLocal()
}

// Send frames data as one OpVector. A vector over the frame bound fails
// here, before any byte is written: it is the caller's error, not a lost
// peer, so RunRestart does not retry it and the receiver never sees it.
func (e *tcpEndpoint) Send(to int, data []float64) error {
	if to < 0 || to >= e.size {
		return fmt.Errorf("cluster: send to invalid rank %d (size %d)", to, e.size)
	}
	if len(data) > wire.MaxPayload/8 {
		return fmt.Errorf("cluster: rank %d send to %d: %d floats exceed the %d-byte frame bound (wire.MaxPayload)", e.rank, to, len(data), wire.MaxPayload)
	}
	select {
	case <-e.closed:
		return fmt.Errorf("cluster: rank %d transport closed: %w", e.rank, ErrPeerLost)
	default:
	}
	conn, err := e.dial(to)
	if err != nil {
		return err
	}
	if err := e.write(conn, wire.OpVector, data); err != nil {
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			return fmt.Errorf("cluster: rank %d send to %d stalled after %v: %w", e.rank, to, e.timeout, ErrCollectiveTimeout)
		}
		return fmt.Errorf("cluster: rank %d send to %d: %w (%v)", e.rank, to, ErrPeerLost, err)
	}
	return nil
}

func (e *tcpEndpoint) Recv(from int) ([]float64, error) {
	if from < 0 || from >= e.size {
		return nil, fmt.Errorf("cluster: recv from invalid rank %d (size %d)", from, e.size)
	}
	select { // fast path: data already queued wins over loss/abort/deadline
	case data := <-e.queues[from]:
		return data, nil
	case <-e.lost[from]:
		return e.drainLost(from)
	default:
	}
	tc, timer := timerC(e.timeout)
	if timer != nil {
		defer timer.Stop()
	}
	select {
	case data := <-e.queues[from]:
		return data, nil
	case <-e.lost[from]:
		return e.drainLost(from)
	case <-e.aborted:
		return nil, fmt.Errorf("cluster: rank %d recv from %d: %w", e.rank, from, ErrAborted)
	case <-e.closed:
		return nil, fmt.Errorf("cluster: rank %d transport closed: %w", e.rank, ErrPeerLost)
	case <-tc:
		return nil, fmt.Errorf("cluster: rank %d recv from %d exceeded %v: %w", e.rank, from, e.timeout, ErrCollectiveTimeout)
	}
}

// drainLost delivers what a lost sender queued before it was lost, then
// reports the loss.
func (e *tcpEndpoint) drainLost(from int) ([]float64, error) {
	select {
	case data := <-e.queues[from]:
		return data, nil
	default:
		return nil, fmt.Errorf("cluster: rank %d lost connection from rank %d: %w", e.rank, from, ErrPeerLost)
	}
}

// Close tears the endpoint down and drains every goroutine it started:
// the listener and all connections (outbound and inbound) are closed,
// pending Recvs unblock with ErrPeerLost, and Close returns only after
// the accept and read loops have exited — no leaks, asserted by the
// teardown tests.
func (e *tcpEndpoint) Close() error {
	e.closeOnce.Do(func() {
		close(e.closed)
		e.closeErr = e.listener.Close()
		e.mu.Lock()
		for _, c := range e.conns {
			c.Close()
		}
		for _, c := range e.inbound {
			c.Close()
		}
		e.mu.Unlock()
		e.wg.Wait()
	})
	return e.closeErr
}
