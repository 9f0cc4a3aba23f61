package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	nadmm "newtonadmm"
)

// fleet is the serving tier under test, all in this process: two
// class-shard replicas, each listening with the binary frame plane on
// loopback, joined by a class-mode router that serves HTTP on loopback.
type fleet struct {
	replicas []*nadmm.ModelServer
	router   *nadmm.RouterServer
	model    *nadmm.Model
	base     string // http://host:port of the router
}

// startFleet serves model. sampleEvery is ServeOptions.SampleEvery for
// every tier: 0 is the shipped default.
func startFleet(model *nadmm.Model, sampleEvery int) (*fleet, error) {
	f := &fleet{model: model}
	var join []string
	for i := 0; i < ranks; i++ {
		ms, err := nadmm.Serve(model, nadmm.ServeOptions{
			WireAddr: "127.0.0.1:0", Workers: 1,
			ShardIndex: i, ShardCount: ranks, SampleEvery: sampleEvery,
		})
		if err != nil {
			f.close()
			return nil, fmt.Errorf("start replica %d: %w", i, err)
		}
		f.replicas = append(f.replicas, ms)
		join = append(join, "tcp://"+ms.WireAddr())
	}
	rs, err := nadmm.ServeSharded(nil, nadmm.RouterOptions{
		Addr: "127.0.0.1:0", Mode: "class", Join: join, SampleEvery: sampleEvery,
	})
	if err != nil {
		f.close()
		return nil, fmt.Errorf("start router: %w", err)
	}
	f.router, f.base = rs, "http://"+rs.Addr()
	return f, nil
}

func (f *fleet) close() {
	if f.router != nil {
		f.router.Close()
	}
	for _, ms := range f.replicas {
		ms.Close()
	}
}

// oracle is the in-process answer for every row of the request pool.
func (f *fleet) oracle(rows []row) ([]int, error) {
	if rows[0].sparse() {
		sp := make([]nadmm.SparseRow, len(rows))
		for i, r := range rows {
			sp[i] = nadmm.SparseRow{Indices: r.Idx, Values: r.Val}
		}
		return f.model.PredictSparse(sp)
	}
	dense := make([][]float64, len(rows))
	for i, r := range rows {
		dense[i] = r.Dense
	}
	return f.model.Predict(dense)
}

// metricz is one scrape of a tier's /metricz, keyed by the row's name
// with its labels.
type metricz map[string]float64

func parseMetricz(r io.Reader) metricz {
	out := make(metricz)
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// scrape reads the router's /metricz.
func (f *fleet) scrape(hc *http.Client) (metricz, error) {
	resp, err := hc.Get(f.base + "/metricz")
	if err != nil {
		return nil, fmt.Errorf("scrape router: %w", err)
	}
	defer resp.Body.Close()
	return parseMetricz(resp.Body), nil
}

// histDelta is the mean, in microseconds, of the samples a duration
// histogram took between two scrapes; 0 when it took none.
func histDelta(name string, before, after metricz) float64 {
	c0, c1 := before[name+"_count"], after[name+"_count"]
	if c1 <= c0 {
		return 0
	}
	return (c1*after[name+"_mean_seconds"] - c0*before[name+"_mean_seconds"]) / (c1 - c0) * 1e6
}

// fleetRungs turns two scrapes of the router into its per-layer metrics
// for the window between them.
func fleetRungs(m *metricSet, r0, r1 metricz) {
	m.put("serve.rejected", "count", r1["nadmm_requests_rejected_total"]-r0["nadmm_requests_rejected_total"])
	m.put("router.stage_scatter_us", "us", histDelta("nadmm_stage_scatter", r0, r1))
	m.put("router.stage_merge_us", "us", histDelta("nadmm_stage_merge", r0, r1))
	var leg float64
	for k, v := range r1 {
		if strings.HasPrefix(k, "nadmm_leg_latency_p99_seconds") {
			leg = max(leg, v)
		}
	}
	m.put("router.leg_p99_us", "us", leg*1e6)
	m.put("router.failovers", "count", r1["nadmm_failovers_total"]-r0["nadmm_failovers_total"])
	m.put("router.skew_retries", "count", r1["nadmm_skew_retries_total"]-r0["nadmm_skew_retries_total"])
}
