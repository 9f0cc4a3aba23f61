package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// schedule is the fixed arrival plan of one window: for request i, when it
// is due (offset from the window start) and which rows of the request pool
// it carries. It is a function of the seed alone.
type schedule struct {
	Due  []time.Duration // nil for a closed loop: send when the last reply arrived
	Rows [][]int
}

// newSchedule draws n requests of rowsPerReq pool rows each. With rate > 0
// arrivals are paced: request i is due at a point the seed draws within
// the i-th slot of 1/rate. With rate 0 there are no due times.
//
// Arrivals are not Poisson because the generator has only clientConns
// connections: a third request due within one service time waits for a
// connection inside the generator, and that wait is not the fleet's. It
// grows steeply with the service time, so with Poisson bursts the tail
// multiplied every slowdown of the host (README.md, "Steadiness").
func newSchedule(seed int64, n, rowsPerReq, pool int, rate float64) schedule {
	rng := rand.New(rand.NewSource(seed))
	s := schedule{Rows: make([][]int, n)}
	if rate > 0 {
		s.Due = make([]time.Duration, n)
	}
	for i := 0; i < n; i++ {
		if rate > 0 {
			s.Due[i] = time.Duration((float64(i) + rng.Float64()) / rate * float64(time.Second))
		}
		rows := make([]int, rowsPerReq)
		for k := range rows {
			rows[k] = rng.Intn(pool)
		}
		s.Rows[i] = rows
	}
	return s
}

// encodeRequest renders {"instances":[...]} for the given pool rows.
func encodeRequest(buf []byte, pool []row, rows []int) []byte {
	buf = append(buf[:0], `{"instances":[`...)
	for k, i := range rows {
		if k > 0 {
			buf = append(buf, ',')
		}
		r := pool[i]
		if r.sparse() {
			buf = append(buf, `{"indices":[`...)
			for j, c := range r.Idx {
				if j > 0 {
					buf = append(buf, ',')
				}
				buf = strconv.AppendInt(buf, int64(c), 10)
			}
			buf = append(buf, `],"values":`...)
			buf = appendFloats(buf, r.Val)
			buf = append(buf, '}')
		} else {
			buf = appendFloats(buf, r.Dense)
		}
	}
	return append(buf, `]}`...)
}

func appendFloats(buf []byte, vs []float64) []byte {
	buf = append(buf, '[')
	for j, v := range vs {
		if j > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendFloat(buf, v, 'g', -1, 64)
	}
	return append(buf, ']')
}

type response struct {
	Predictions   []int       `json:"predictions"`
	Probabilities [][]float64 `json:"probabilities"`
}

// check compares one decoded response with the oracle: every class must
// equal the in-process prediction for that row, and on the proba surface
// every row must be a distribution.
func (r *response) check(rows []int, oracle []int, proba bool, classes int) error {
	if len(r.Predictions) != len(rows) {
		return fmt.Errorf("%d predictions for %d rows", len(r.Predictions), len(rows))
	}
	for k, i := range rows {
		if r.Predictions[k] != oracle[i] {
			return fmt.Errorf("row %d: served class %d, in-process class %d", i, r.Predictions[k], oracle[i])
		}
	}
	if !proba {
		return nil
	}
	if len(r.Probabilities) != len(rows) {
		return fmt.Errorf("%d probability rows for %d rows", len(r.Probabilities), len(rows))
	}
	for k, p := range r.Probabilities {
		var sum float64
		for _, v := range p {
			sum += v
		}
		if len(p) != classes || math.Abs(sum-1) > 1e-9 {
			return fmt.Errorf("row %d: %d probabilities summing to %v", rows[k], len(p), sum)
		}
	}
	return nil
}

// window is what one measured traffic window saw from the client side.
type window struct {
	Seconds   float64
	CPU       time.Duration
	Latency   []float64 // ms, completed requests, timed from due (open) or send (closed)
	Late      []float64 // ms between a request being due and the generator sending it
	Encode    []float64 // us
	HTTP      []float64 // us
	Decode    []float64 // us
	Sent      int
	Failed    int
	Unsent    int // due within the window but never sent: a backlog at the end
	BacklogMx int
	FirstErr  error
	Rows      int // rows in completed requests
}

// loadgen drives the router's HTTP surface over clientConns keep-alive
// connections, one worker per connection. In an open loop the workers take
// requests in schedule order and each waits for its request's due time; a
// request whose due time has passed is sent at once and its latency still
// counts from when it was due, so a stall is charged to every request it
// delays. Nothing is shed.
type loadgen struct {
	hc      *http.Client
	url     string
	pool    []row
	oracle  []int
	proba   bool
	classes int
	tr      *tracer
}

func newLoadgen(f *fleet, w workload, pool []row, oracle []int, tr *tracer) *loadgen {
	path := "/v1/predict"
	if w.Proba {
		path = "/v1/proba"
	}
	return &loadgen{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns,
		}},
		url: f.base + path, pool: pool, oracle: oracle,
		proba: w.Proba, classes: f.model.Classes, tr: tr,
	}
}

func (g *loadgen) close() { g.hc.CloseIdleConnections() }

// drainGrace is how long after an open-loop window the generator keeps
// sending what was due inside it; a request still unsent by then is a
// backlog that is not draining, and fails.
const drainGrace = time.Second

// run sends sched over a window of d. Open loop: the requests due within
// d, each at its due time or as soon after as a connection is free. Closed
// loop: each worker sends its next request when the previous reply
// arrived, until d has passed.
func (g *loadgen) run(sched schedule, d time.Duration) window {
	var (
		mu   sync.Mutex
		w    window
		next atomic.Int64
		wg   sync.WaitGroup
	)
	open := sched.Due != nil
	n := len(sched.Rows)
	if open { // requests due after the window are not part of it
		for n > 0 && sched.Due[n-1] > d {
			n--
		}
	}
	cpu0, start := cpuTime(), time.Now()
	for c := 0; c < clientConns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body []byte
			var resp response
			done := start
			for {
				i := int(next.Add(1)) - 1
				if i >= n || (!open && time.Since(start) >= d) || time.Since(start) >= d+drainGrace {
					return
				}
				// A closed-loop request is due when the worker's previous
				// reply arrived; its latency is timed from the send.
				due := done
				if open {
					due = start.Add(sched.Due[i])
					time.Sleep(time.Until(due))
				}
				t0 := time.Now()
				from := t0
				if open {
					from = due
				}
				body = encodeRequest(body, g.pool, sched.Rows[i])
				t1 := time.Now()
				raw, err := g.post(body)
				t2 := time.Now()
				if err == nil {
					resp = response{}
					if err = json.Unmarshal(raw, &resp); err == nil {
						err = resp.check(sched.Rows[i], g.oracle, g.proba, g.classes)
					}
				}
				t3 := time.Now()
				done = t3
				if g.tr != nil {
					id := g.tr.newID()
					g.tr.record(id, 0, id, "client.request", t0, t3)
					g.tr.record(0, id, id, "client.encode", t0, t1)
					g.tr.record(0, id, id, "client.http", t1, t2)
					g.tr.record(0, id, id, "client.decode", t2, t3)
				}
				mu.Lock()
				w.Sent++
				if open {
					// Requests due by now and not yet taken by a worker.
					backlog := 0
					for j := int(next.Load()); j < n && sched.Due[j] <= t0.Sub(start); j++ {
						backlog++
					}
					w.BacklogMx = max(w.BacklogMx, backlog)
				}
				w.Late = append(w.Late, msOf(t0.Sub(due)))
				if err != nil {
					w.Failed++
					if w.FirstErr == nil {
						w.FirstErr = err
					}
				} else {
					w.Latency = append(w.Latency, msOf(t3.Sub(from)))
					w.Encode = append(w.Encode, usOf(t1.Sub(t0)))
					w.HTTP = append(w.HTTP, usOf(t2.Sub(t1)))
					w.Decode = append(w.Decode, usOf(t3.Sub(t2)))
					w.Rows += len(sched.Rows[i])
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	w.Seconds = time.Since(start).Seconds()
	w.CPU = cpuTime() - cpu0
	if open {
		w.Unsent = n - w.Sent
	}
	return w
}

func (g *loadgen) post(body []byte) ([]byte, error) {
	resp, err := g.hc.Post(g.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// scheduleFor sizes a schedule for a window of d: the open loop's slots
// within d, or more closed-loop requests than two clients can finish
// (10000 rows/s is over twice what the reference box completes).
func (w workload) scheduleFor(seed int64, d time.Duration) schedule {
	if w.Open {
		n := int(w.RatePerSec*d.Seconds()) + 1
		return newSchedule(seed, n, w.RowsPerReq, requestPool, w.RatePerSec)
	}
	n := int(10000*d.Seconds())/w.RowsPerReq + 100
	return newSchedule(seed, n, w.RowsPerReq, requestPool, 0)
}
