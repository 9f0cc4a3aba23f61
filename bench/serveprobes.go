package main

import (
	"encoding/json"
	"fmt"
	"time"

	"newtonadmm/internal/loss"
	"newtonadmm/internal/router"
	"newtonadmm/internal/serve"
	"newtonadmm/internal/wire"
)

// serveProbes measures each serving layer alone on one request of the
// workload's shape (the given pool rows). clientP50us is the client's
// median latency from the traffic window, against which the HTTP edge is
// sized.
func (w workload) serveProbes(f *fleet, pool []row, rows []int, clientP50us float64, m *metricSet) error {
	classes, features := f.model.Classes, f.model.Features
	n := len(rows)

	// serve: the JSON edge — split the body into instances and parse each,
	// as the HTTP handlers do.
	body := encodeRequest(nil, pool, rows)
	m.put("serve.json_bytes_per_req", "count", float64(len(body)))
	var perr error
	m.put("serve.parse_us", "us", usOf(timeCalls(probeCalls, func() {
		var req struct {
			Instances []json.RawMessage `json:"instances"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			perr = err
		}
		for _, raw := range req.Instances {
			if _, err := serve.ParseInstance(raw); err != nil {
				perr = err
			}
		}
	})))
	if perr != nil {
		return fmt.Errorf("parse probe: %w", perr)
	}

	// wire: the scatter frame a router leg carries for this request.
	var enc wire.Encoder
	encode := func() []byte {
		enc.Begin(wire.OpScores, 1)
		enc.BatchHeader(n, features, classes/2)
		for _, i := range rows {
			if r := pool[i]; r.sparse() {
				enc.SparseRow(r.Idx, r.Val)
			} else {
				enc.DenseRow(r.Dense)
			}
		}
		return enc.Bytes()
	}
	m.put("wire.encode_us", "us", usOf(timeCalls(probeCalls, func() { encode() })))
	frame := encode()
	m.put("wire.bytes_per_req", "count", float64(len(frame)))
	var wb wire.Batch
	m.put("wire.decode_us", "us", usOf(timeCalls(probeCalls, func() {
		if err := wb.Decode(frame[wire.HeaderSize:]); err != nil {
			perr = err
		}
	})))
	if perr != nil {
		return fmt.Errorf("frame decode probe: %w", perr)
	}

	// serve: the predictor alone, then the same rows through a batcher.
	pred, err := serve.NewPredictor(f.model.Weights, classes, features, 1)
	if err != nil {
		return fmt.Errorf("predictor probe: %w", err)
	}
	var dense [][]float64
	var idx [][]int
	var val [][]float64
	for _, i := range rows {
		if r := pool[i]; r.sparse() {
			idx, val = append(idx, r.Idx), append(val, r.Val)
		} else {
			dense = append(dense, r.Dense)
		}
	}
	out, probs := make([]int, n), make([]float64, n*classes)
	score := func() error {
		switch {
		case w.Proba && dense != nil:
			return pred.ProbaDense(dense, probs)
		case w.Proba:
			return pred.ProbaCSR(idx, val, probs)
		case dense != nil:
			return pred.PredictDense(dense, out)
		}
		return pred.PredictCSR(idx, val, out)
	}
	m.put("serve.predictor_us", "us", usOf(timeCalls(probeCalls, func() {
		if err := score(); err != nil {
			perr = err
		}
	})))

	reg := serve.NewRegistry()
	reg.Swap(pred, serve.ModelMeta{}) // the registry now owns pred
	bat := serve.NewBatcher(reg, serve.BatcherConfig{})
	tickets := make([]serve.Ticket, n)
	batStart := time.Now()
	m.put("serve.batcher_rtt_us", "us", usOf(timeCalls(10*probeCalls, func() {
		for k, i := range rows {
			var po []float64
			if w.Proba {
				po = probs[k*classes : (k+1)*classes]
			}
			var err error
			if r := pool[i]; r.sparse() {
				tickets[k], err = bat.SubmitCSR(r.Idx, r.Val, po)
			} else {
				tickets[k], err = bat.SubmitDense(r.Dense, po)
			}
			if err != nil {
				perr = err
				return
			}
		}
		for _, t := range tickets {
			if _, err := t.Wait(); err != nil {
				perr = err
			}
		}
	})))
	// Class-shard legs score partial tiles without going through the
	// replica's batcher, so the fleet's own batcher counters stay at zero
	// under this traffic. The batcher's stage rungs are therefore this
	// standalone batcher's, fed the same request shape one request at a
	// time.
	batS := time.Since(batStart).Seconds()
	st := bat.Stats()
	bat.Close()
	reg.Close()
	if perr != nil || st.Batches == 0 {
		return fmt.Errorf("predictor/batcher probe: %d batches, %v", st.Batches, perr)
	}
	m.put("serve.batch_rows_mean", "count", float64(st.Completed)/float64(st.Batches))
	m.put("serve.batches_per_s", "1/s", float64(st.Batches)/batS)
	m.put("serve.stage_queue_us", "us", usOf(bat.StageQueue.Mean()))
	m.put("serve.stage_linger_us", "us", usOf(bat.StageLinger.Mean()))
	m.put("serve.stage_execute_us", "us", usOf(bat.StageExecute.Mean()))

	// router: scatter, replica round trips over the frame plane and merge,
	// entered in process — everything but the HTTP edge.
	rt := f.router.Router()
	call := func() {
		var b router.Batch
		for _, i := range rows {
			if r := pool[i]; r.sparse() {
				b.AddCSR(r.Idx, r.Val)
			} else {
				b.AddDense(r.Dense)
			}
		}
		b.Trace = rt.StartTrace(time.Now())
		var err error
		if w.Proba {
			err = rt.Proba(&b, probs, out)
		} else {
			err = rt.Predict(&b, out)
		}
		rt.FinishTrace(b.Trace, time.Now())
		if err != nil {
			perr = err
		}
	}
	inproc := usOf(timeCalls(10*probeCalls, call))
	if perr != nil {
		return fmt.Errorf("router probe: %w", perr)
	}
	m.put("router.inproc_rtt_us", "us", inproc)
	m.put("router.edge_us", "us", clientP50us-inproc)
	m.put("serve.allocs_per_req", "count", allocsPer(10*probeCalls, call))

	// loss: the router-side merge kernel over the gathered score tile.
	scores := make([]float64, n*(classes-1))
	for i := range scores {
		scores[i] = float64(i%7) - 3
	}
	m.put("loss.merge_us", "us", usOf(timeCalls(probeCalls, func() {
		if w.Proba {
			loss.ProbaFromScores(scores, n, classes, probs)
		} else {
			loss.PredictFromScores(scores, n, classes, out)
		}
	})))
	return nil
}
