package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"time"

	"newtonadmm/internal/control"
	"newtonadmm/internal/device"
	"newtonadmm/internal/obs"
	"newtonadmm/internal/wire"
)

// PriorityHeader is the HTTP request header carrying the request's
// service class ("interactive", "batch", "background") — the client
// edge's equivalent of the binary plane's priority trailer. Absent means
// interactive, so pre-priority clients are unchanged; an unknown value
// is a 400 (a typo'd class silently served as interactive would defeat
// the starvation bound the classes exist for).
const PriorityHeader = "X-Nadmm-Priority"

// Tier is what a serving tier plugs into the HTTP surface: how a parsed
// request is scored, what /healthz says, and which rows /metricz
// carries. The single-node tier scores through Batcher.ScoreBatch, the
// scatter-gather router through Router.Predict/Proba; everything a
// client can observe besides that is Server's, so the two tiers cannot
// drift apart.
type Tier interface {
	// Shape reports the class count probability rows are sized to and
	// the model version responses are stamped with; ok is false while
	// no model is loaded (the request is answered 503).
	Shape() (classes int, version int64, ok bool)
	// Score scores rows in order under service class pri: predicted
	// classes into preds and, when proba is non-nil, class
	// probabilities into proba (rows x classes, row-major). The
	// rows are views into pooled buffers that are recycled after the
	// response: Score must not return while anything can still read
	// them. start is the request's arrival time. A tier that traces
	// requests from this edge returns the request's sampled trace (nil
	// when unsampled); the server adds the request-decode and
	// response-encode spans to it and hands it to Finish once the
	// response is written, whether Score failed or not.
	Score(rows *wire.Batch, pri control.Priority, start time.Time, preds []int, proba []float64) (*obs.Trace, error)
	// Finish publishes a non-nil trace returned by Score.
	Finish(tr *obs.Trace, start time.Time)
	// Health is the /healthz status code and JSON body.
	Health(uptime time.Duration) (status int, body any)
	// Metrics registers the tier's /metricz rows.
	Metrics(o *obs.Registry)
}

// Server is the kserve-style HTTP surface of a serving tier — the one
// place JSON is spoken (replicas are reached over internal/wire):
//
//	POST /v1/predict  {"instances":[[...], {"indices":[...],"values":[...]}, ...]}
//	POST /v1/proba    same body, returns class probabilities as well
//	GET  /healthz     serving readiness + current model metadata
//	GET  /metricz     unified nadmm_* metrics exposition (internal/obs)
//	GET  /debug/tracez  recent sampled traces + slowest-request waterfall
//	POST /v1/reload   hot-swap the model via the configured reloader
//
// Dense instances are JSON arrays of Features numbers; sparse instances
// are {"indices":[...],"values":[...]} objects with strictly increasing
// zero-based indices. The two kinds may be mixed in one request.
type Server struct {
	tier   Tier
	reload func() (int64, error) // optional hot-reload hook
	mux    *http.ServeMux
	start  time.Time
	obsReg *obs.Registry
	status []statusRule
}

// statusRule maps one error sentinel to the HTTP status it is answered
// with.
type statusRule struct {
	err    error
	status int
}

// NewServer wires the single-node HTTP surface over the batcher and
// registry. reload may be nil, which disables /v1/reload.
func NewServer(reg *Registry, bat *Batcher, reload func() (int64, error)) *Server {
	return NewTierServer(batcherTier{reg: reg, bat: bat}, bat.Recorder(), reload)
}

// NewTierServer wires the HTTP surface over t. rec backs /debug/tracez;
// reload may be nil, which disables /v1/reload.
func NewTierServer(t Tier, rec *obs.Recorder, reload func() (int64, error)) *Server {
	s := &Server{tier: t, reload: reload, mux: http.NewServeMux(), start: time.Now(), obsReg: obs.NewRegistry()}
	// Backpressure is 429; a missing model, shutdown, and a mid-request
	// hot-swap shape change are 503 (transient — the request was valid
	// when sent, a retry succeeds); anything unmapped is a 400-class
	// request problem (bad shapes, bad indices).
	s.MapStatus(http.StatusTooManyRequests, ErrQueueFull)
	s.MapStatus(http.StatusServiceUnavailable, ErrNoModel, ErrClosed, ErrModelShapeChanged)
	t.Metrics(s.obsReg)
	s.obsReg.GaugeFunc("nadmm_uptime_seconds", "", "seconds since server start",
		func() float64 { return time.Since(s.start).Seconds() })
	s.obsReg.GaugeFunc("nadmm_goroutines", "", "goroutines in this process",
		func() float64 { return float64(runtime.NumGoroutine()) })
	s.mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) { s.handlePredict(w, r, false) })
	s.mux.HandleFunc("/v1/proba", func(w http.ResponseWriter, r *http.Request) { s.handlePredict(w, r, true) })
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/metricz", s.handleMetricz)
	s.mux.Handle("/debug/tracez", obs.TracezHandler(rec))
	s.mux.HandleFunc("/v1/reload", s.handleReload)
	return s
}

// MapStatus answers errors matching any of errs (errors.Is) with
// status — how a tier adds its own sentinels to the error table. Call
// it before the server handles requests.
func (s *Server) MapStatus(status int, errs ...error) {
	for _, err := range errs {
		s.status = append(s.status, statusRule{err: err, status: status})
	}
}

// HandleFunc mounts a tier-specific endpoint beside the shared surface.
func (s *Server) HandleFunc(pattern string, h http.HandlerFunc) { s.mux.HandleFunc(pattern, h) }

// EnableDebug mounts net/http/pprof under /debug/pprof/. Opt-in (the
// -debug flag): profiling endpoints expose stack traces and must not be
// on by default on a serving port.
func (s *Server) EnableDebug() {
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Handler returns the root http.Handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Obs returns the metrics registry behind /metricz (the router's
// autoscaler windows nadmm_request_latency out of it and adds its own
// rows).
func (s *Server) Obs() *obs.Registry { return s.obsReg }

type predictResponse struct {
	Predictions   []int       `json:"predictions"`
	Probabilities [][]float64 `json:"probabilities,omitempty"`
	ModelVersion  int64       `json:"model_version"`
}

type errorResponse struct {
	Error string `json:"error"`
	// Reason is the machine-readable admission rejection reason
	// ("queue_full", "rate_limited", "cost_rejected"), set on 429s only.
	Reason string `json:"reason,omitempty"`
}

// WriteJSON answers with status and v as the JSON body.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// WriteError answers with status and the {"error": ...} envelope.
func WriteError(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

// DecodeBody decodes the JSON body of an admin request into v, reading
// at most wire.MaxPayload bytes. On failure it has answered (413 past
// the bound, else 400) and reports false. Scoring requests do not come
// through here: scan.go decodes them.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, wire.MaxPayload)).Decode(v)
	if err != nil {
		writeBodyError(w, err)
	}
	return err == nil
}

// writeBodyError answers a failed body read: 413 past wire.MaxPayload,
// else 400.
func writeBodyError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		status = http.StatusRequestEntityTooLarge
	}
	WriteError(w, status, "bad request body: %v", err)
}

// writeScoreError answers a scoring error with its mapped status. A 429
// additionally carries the machine-readable rejection reason in the
// body and, when the admission policy computed a refill horizon, a
// Retry-After header (whole seconds, rounded up — HTTP has no
// sub-second form), so clients see one envelope whichever seam rejected
// them.
func (s *Server) writeScoreError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	for _, rule := range s.status {
		if errors.Is(err, rule.err) {
			status = rule.status
			break
		}
	}
	if status != http.StatusTooManyRequests {
		WriteError(w, status, "%v", err)
		return
	}
	reason, retryAfter, ok := RejectionOf(err)
	if !ok {
		reason = control.ReasonQueueFull
	}
	if retryAfter > 0 {
		secs := int64((retryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	WriteJSON(w, status, errorResponse{Error: err.Error(), Reason: reason.String()})
}

func requirePost(w http.ResponseWriter, r *http.Request) bool {
	if r.Method != http.MethodPost {
		WriteError(w, http.StatusMethodNotAllowed, "use POST")
		return false
	}
	return true
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request, proba bool) {
	if !requirePost(w, r) {
		return
	}
	start := time.Now()
	// The rows are views into st's buffers: st goes back to the pool
	// when this handler returns, after Score and the response write.
	st := stagingPool.Get().(*staging)
	defer st.release()
	if err := st.read(w, r); err != nil {
		writeBodyError(w, err)
		return
	}
	rows, err := st.scan()
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	decode := time.Since(start)
	classes, version, ok := s.tier.Shape()
	if !ok {
		WriteError(w, http.StatusServiceUnavailable, "no model loaded")
		return
	}
	pri, err := control.ParsePriority(r.Header.Get(PriorityHeader))
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%s: %v", PriorityHeader, err)
		return
	}
	n := rows.Rows()
	resp := predictResponse{Predictions: make([]int, n), ModelVersion: version}
	var flat []float64
	if proba {
		flat = make([]float64, n*classes)
		resp.Probabilities = make([][]float64, n)
		for i := range resp.Probabilities {
			resp.Probabilities[i] = flat[i*classes : (i+1)*classes]
		}
	}
	tr, err := s.tier.Score(rows, pri, start, resp.Predictions, flat)
	tr.AddSpan(obs.StageDecode, -1, 0, start, decode)
	if err != nil {
		s.writeScoreError(w, err)
	} else {
		encStart := time.Now()
		WriteJSON(w, http.StatusOK, resp)
		tr.AddSpan(obs.StageEncode, -1, 0, encStart, time.Since(encStart))
	}
	if tr != nil {
		s.tier.Finish(tr, start)
	}
}

// Instance is one decoded request instance, ParseInstance's result: a
// dense feature row or a sparse (indices, values) pair. Exactly one form
// is populated, discriminated by Sparse (a sparse instance may
// legitimately have zero nonzeros, so nil-ness of the slices cannot
// discriminate). Whole requests decode to a wire.Batch instead.
type Instance struct {
	Dense   []float64
	Indices []int
	Values  []float64
	Sparse  bool
}

// ParseInstance decodes one request instance — a dense JSON array of
// Features numbers, or a sparse {"indices":[...],"values":[...]} object
// with strictly increasing zero-based indices — into slices of its own,
// with the scanner that decodes whole request bodies. The repository
// benchmark times this function as the JSON edge's parse cost.
func ParseInstance(raw json.RawMessage) (Instance, error) {
	st := newStaging()
	s := scanner{b: raw}
	s.ws()
	s.instance(st)
	if s.ws(); s.pos < len(raw) {
		s.fail(s.pos, "trailing data after the instance")
	}
	if s.err != nil {
		return Instance{}, s.err
	}
	b := st.cut()
	if b.Kind[0] {
		return Instance{Indices: b.Idx[0], Values: b.Val[0], Sparse: true}, nil
	}
	return Instance{Dense: b.Dense[0]}, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, body := s.tier.Health(time.Since(s.start))
	WriteJSON(w, status, body)
}

func (s *Server) handleMetricz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.obsReg.WriteText(w)
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if !requirePost(w, r) {
		return
	}
	if s.reload == nil {
		WriteError(w, http.StatusNotImplemented, "no reloader configured (start the server with a model path)")
		return
	}
	version, err := s.reload()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "reload failed: %v", err)
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"status": "reloaded", "model_version": version})
}

// batcherTier is the single-node Tier: every row becomes a batcher
// ticket, so concurrent requests coalesce into shared kernel launches.
type batcherTier struct {
	reg *Registry
	bat *Batcher
}

func (t batcherTier) Shape() (classes int, version int64, ok bool) {
	meta, ok := t.reg.Meta()
	return meta.Classes, meta.Version, ok
}

// Score is Batcher.ScoreBatch. Requests are not traced from this edge:
// the batcher samples its own stages.
func (t batcherTier) Score(rows *wire.Batch, pri control.Priority, _ time.Time, preds []int, proba []float64) (*obs.Trace, error) {
	return nil, t.bat.ScoreBatch(rows, pri, nil, preds, proba)
}

func (batcherTier) Finish(*obs.Trace, time.Time) {}

func (t batcherTier) Health(uptime time.Duration) (int, any) {
	meta, ok := t.reg.Meta()
	if !ok {
		return http.StatusServiceUnavailable, map[string]any{"status": "no model"}
	}
	return http.StatusOK, map[string]any{
		"status":         "ok",
		"model":          meta,
		"uptime_seconds": uptime.Seconds(),
	}
}

// Metrics wires the serving tier's canonical metric rows (the name
// table in DESIGN.md "Observability") over the batcher's and registry's
// live counters. Scrapes read atomics; nothing is locked against the
// request path.
func (t batcherTier) Metrics(o *obs.Registry) {
	reg, bat := t.reg, t.bat
	o.CounterFunc("nadmm_requests_total", "", "instances completed (unit: rows; the router's figure counts client requests)",
		func() uint64 { return uint64(bat.Stats().Completed) })
	o.CounterFunc("nadmm_requests_submitted_total", "", "instances accepted into the admission queue",
		func() uint64 { return uint64(bat.Stats().Submitted) })
	o.CounterFunc("nadmm_requests_rejected_total", "", "instances rejected by admission-queue backpressure (HTTP 429)",
		func() uint64 { return uint64(bat.Stats().Rejected) })
	o.CounterFunc("nadmm_batches_total", "", "micro-batches launched",
		func() uint64 { return uint64(bat.Stats().Batches) })
	o.GaugeFunc("nadmm_batch_rows_mean", "", "mean rows per launched micro-batch", func() float64 {
		st := bat.Stats()
		if st.Batches == 0 {
			return 0
		}
		return float64(st.Completed) / float64(st.Batches)
	})
	o.GaugeFunc("nadmm_batch_size_p50", "", "median micro-batch size (rows)",
		func() float64 { return float64(bat.BatchSize.Quantile(0.5)) })
	o.GaugeFunc("nadmm_batch_size_max", "", "largest micro-batch size (rows)",
		func() float64 { return float64(bat.BatchSize.Max()) })
	o.Duration("nadmm_request_latency", "", "sampled end-to-end instance latency, submit to completion", bat.Latency)
	o.Duration("nadmm_stage_queue", "", "admission-queue wait of sampled instances", bat.StageQueue)
	o.Duration("nadmm_stage_linger", "", "dequeue-to-launch linger of sampled instances", bat.StageLinger)
	o.Duration("nadmm_stage_execute", "", "batch execute (kernel) time of sampled instances", bat.StageExecute)
	o.GaugeFunc("nadmm_model_version", "", "current model snapshot version (0 = none loaded)", func() float64 {
		if m, ok := reg.Meta(); ok {
			return float64(m.Version)
		}
		return 0
	})
	deviceStat := func(pick func(device.Stats) uint64) func() uint64 {
		return func() uint64 {
			p, rel, err := reg.AcquirePredictor()
			if err != nil {
				return 0
			}
			ds := p.Device().Stats()
			rel()
			return pick(ds)
		}
	}
	o.CounterFunc("nadmm_device_launches_total", "", "kernel launches on the serving device",
		deviceStat(func(ds device.Stats) uint64 { return uint64(ds.Launches) }))
	o.CounterFunc("nadmm_device_flops_total", "", "floating-point operations executed by the serving device",
		deviceStat(func(ds device.Stats) uint64 { return uint64(ds.FLOPs) }))
	o.CounterFunc("nadmm_device_bytes_total", "", "bytes moved by the serving device",
		deviceStat(func(ds device.Stats) uint64 { return uint64(ds.Bytes) }))
	registerControlMetrics(o, bat)
}

// registerControlMetrics wires the admission/priority rows shared by
// both serving tiers (the router registers the same shape over its own
// rejection stats).
func registerControlMetrics(o *obs.Registry, bat *Batcher) {
	stats := bat.AdmissionStats()
	for _, reason := range []control.Reason{control.ReasonQueueFull, control.ReasonRateLimited, control.ReasonCostRejected} {
		reason := reason
		o.CounterFunc("nadmm_admission_rejected_total", `reason="`+reason.String()+`"`,
			"instances rejected by admission control, by machine-readable reason",
			func() uint64 { return stats.Count(reason) })
	}
	for c := control.Priority(0); c < control.NumPriorities; c++ {
		c := c
		o.GaugeFunc("nadmm_priority_queue_depth", `class="`+c.String()+`"`,
			"requests waiting in the admission queue, by service class",
			func() float64 { return float64(bat.QueueLen(c)) })
	}
	o.GaugeFunc("nadmm_admission_active", "", "1 when an admission policy beyond the queue bound is installed",
		func() float64 {
			if bat.Policy() != nil {
				return 1
			}
			return 0
		})
}
