package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// scanBody runs the request scanner over body with a fresh staging and
// lays its batch out as instances, the oracle's form.
func scanBody(body []byte) ([]Instance, error) {
	st := newStaging()
	st.body.Write(body)
	b, err := st.scan()
	if err != nil {
		return nil, err
	}
	var insts []Instance
	d, s := 0, 0
	for _, sparse := range b.Kind {
		if sparse {
			insts = append(insts, Instance{Indices: b.Idx[s], Values: b.Val[s], Sparse: true})
			s++
		} else {
			insts = append(insts, Instance{Dense: b.Dense[d]})
			d++
		}
	}
	return insts, nil
}

// sameInstance reports whether the scanner and the oracle decoded the
// same instance, bit for bit (-0 and 0 differ).
func sameInstance(a, b Instance) bool {
	sameFloats := func(x, y []float64) bool {
		if len(x) != len(y) || (x == nil) != (y == nil) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	if a.Sparse != b.Sparse || len(a.Indices) != len(b.Indices) || (a.Indices == nil) != (b.Indices == nil) {
		return false
	}
	for i := range a.Indices {
		if a.Indices[i] != b.Indices[i] {
			return false
		}
	}
	return sameFloats(a.Dense, b.Dense) && sameFloats(a.Values, b.Values)
}

// differential checks one body against the oracle and returns the
// deliberate differences that explain a scanner-only rejection (nil
// when the two agree).
func differential(t *testing.T, body []byte) []string {
	t.Helper()
	got, err := scanBody(body)
	want, oerr := oracleRequest(body)
	if err != nil && oerr != nil {
		return nil
	}
	found := differences(body)
	if found[diffTopFolded] {
		// The two read different members as the instances; all that is
		// left to hold is that the scanner did not panic.
		return []string{diffTopFolded}
	}
	if oerr != nil {
		t.Fatalf("scanner accepted %q, which the oracle rejects: %v", body, oerr)
	}
	if err != nil {
		if len(found) == 0 {
			t.Fatalf("scanner rejected %q (%v), which the oracle accepts, outside every deliberate difference", body, err)
		}
		var names []string
		for name := range found {
			names = append(names, name)
		}
		sort.Strings(names)
		return names
	}
	if len(got) != len(want) {
		t.Fatalf("%q: scanner decoded %d instances, oracle %d", body, len(got), len(want))
	}
	for i := range got {
		if !sameInstance(got[i], want[i]) {
			t.Fatalf("%q: instance %d: scanner %+v, oracle %+v", body, i, got[i], want[i])
		}
	}
	return nil
}

// benchBody renders a request the way the repository benchmark does:
// shortest-round-trip floats, no whitespace.
func benchBody(rng *rand.Rand, rows, features int, sparse bool) []byte {
	buf := []byte(`{"instances":[`)
	for r := 0; r < rows; r++ {
		if r > 0 {
			buf = append(buf, ',')
		}
		var idx, val []byte
		for j := 0; j < features; j++ {
			if sparse && rng.Intn(8) != 0 {
				continue
			}
			if len(val) > 0 {
				idx, val = append(idx, ','), append(val, ',')
			}
			idx = strconv.AppendInt(idx, int64(j), 10)
			val = strconv.AppendFloat(val, rng.NormFloat64(), 'g', -1, 64)
		}
		if sparse {
			buf = append(buf, `{"indices":[`...)
			buf = append(buf, idx...)
			buf = append(buf, `],"values":[`...)
			buf = append(append(buf, val...), `]}`...)
		} else {
			buf = append(append(append(buf, '['), val...), ']')
		}
	}
	return append(buf, `]}`...)
}

// grammarCases pin the request grammar (DESIGN.md "Serving side"): the
// scanner's verdict and error text, and — where the encoding/json
// decoder accepted the body — which deliberate difference rejects it.
var grammarCases = []struct {
	name, body string
	err        string   // "" = accepted
	diff       []string // differences that explain a scanner-only rejection
}{
	{name: "dense and sparse", body: `{"instances":[[0.5,-1,2],{"indices":[0,2],"values":[1.5,-2]}]}`},
	{name: "whitespace everywhere", body: " {\t\"instances\" :\r\n[ [ 1 , 2 ] , { \"values\" : [ ] , \"indices\" : [ ] } ] } \n"},
	{name: "values before indices", body: `{"instances":[{"values":[1],"indices":[7]}]}`},
	{name: "negative zero and exponents", body: `{"instances":[[-0,-0.0,1E2,1e+2,1e-2,0e0]]}`},
	{name: "underflow is zero", body: `{"instances":[[1e-999,-1e-999]]}`},
	{name: "negative index is the scorer's to reject", body: `{"instances":[{"indices":[-1,-0],"values":[1,2]}]}`},
	{name: "unknown top-level members skipped", body: `{"id":"a\"\\\/\bé","parameters":{"k":[true,false,null,{"x":-1.5e3}]},"instances":[[1]],"z":0}`},
	{name: "empty body", body: ``, err: `bad request body: offset 0: unexpected end of input, want '{'`},
	{name: "truncated", body: `{"instances":[`, err: `bad request body: offset 14: unexpected end of input, want an element or ']'`},
	{name: "top-level array", body: `[[1]]`, err: `bad request body: offset 0: unexpected '[', want '{'`},
	{name: "instances not an array", body: `{"instances":null}`, err: `bad request body: offset 13: unexpected 'n', want '['`},
	{name: "no instances member", body: `{"inputs":[[1]]}`, err: `no instances`},
	{name: "empty instances", body: `{"instances":[]}`, err: `no instances`},
	{name: "scalar instance", body: `{"instances":[[1],"nope"]}`, err: `instance 1: instance must be an array or an {indices, values} object`},
	{name: "empty sparse object", body: `{"instances":[{}]}`, err: `instance 0: sparse instance needs both "indices" and "values"`},
	{name: "values only", body: `{"instances":[{"values":[1]}]}`, err: `instance 0: sparse instance needs both "indices" and "values"`},
	{name: "unknown sparse key", body: `{"instances":[{"idx":[1],"vals":[1]}]}`, err: `instance 0: offset 15: unknown sparse key "idx"`},
	{name: "nested array", body: `{"instances":[[[1,2],[3]]]}`, err: `instance 0: offset 15: unexpected '[', want a number`},
	{name: "string element", body: `{"instances":[["1"]]}`, err: `instance 0: offset 15: unexpected '"', want a number`},
	{name: "leading zero", body: `{"instances":[[01]]}`, err: `instance 0: offset 16: unexpected '1', want ',' or ']'`},
	{name: "bare fraction", body: `{"instances":[[1.]]}`, err: `instance 0: offset 17: unexpected ']', want a digit`},
	{name: "bare minus", body: `{"instances":[[-]]}`, err: `instance 0: offset 16: unexpected ']', want a number`},
	{name: "plus sign", body: `{"instances":[[+1]]}`, err: `instance 0: offset 15: unexpected '+', want a number`},
	{name: "NaN", body: `{"instances":[[NaN]]}`, err: `instance 0: offset 15: unexpected 'N', want a number`},
	{name: "Infinity", body: `{"instances":[[-Infinity]]}`, err: `instance 0: offset 16: unexpected 'I', want a number`},
	{name: "overflow", body: `{"instances":[[1,1e999]]}`, err: `instance 0: offset 17: number 1e999 out of range`},
	{name: "trailing comma", body: `{"instances":[[1,]]}`, err: `instance 0: offset 17: unexpected ']', want a number`},
	{name: "missing comma", body: `{"instances":[[1][2]]}`, err: `bad request body: offset 17: unexpected '[', want ',' or ']'`},
	{name: "fractional index", body: `{"instances":[{"indices":[1.0],"values":[1]}]}`, err: `instance 0: offset 26: index 1.0 is not an integer in range`},
	{name: "exponent index", body: `{"instances":[{"indices":[1e2],"values":[1]}]}`, err: `instance 0: offset 26: index 1e2 is not an integer in range`},
	{name: "index overflow", body: `{"instances":[{"indices":[9223372036854775808],"values":[1]}]}`, err: `instance 0: offset 26: index 9223372036854775808 is not an integer in range`},
	{name: "indices not an array", body: `{"instances":[{"indices":3,"values":[1]}]}`, err: `instance 0: offset 25: unexpected '3', want '['`},
	{name: "bad skipped member", body: `{"x":[1,],"instances":[[1]]}`, err: `bad request body: offset 8: unexpected ']', want a value`},
	{name: "bad escape in skipped member", body: `{"x":"\q","instances":[[1]]}`, err: `bad request body: offset 7: unexpected 'q', want an escape character`},
	{name: "control character in key", body: "{\"a\tb\":1,\"instances\":[[1]]}", err: `bad request body: offset 3: control character in string`},
	{name: "unquoted key", body: `{instances:[[1]]}`, err: `bad request body: offset 1: unexpected 'i', want '"'`},

	// The three silent acceptances of the encoding/json decoder.
	{name: "null element", body: `{"instances":[[1,null,2]]}`, diff: []string{diffNull},
		err: `instance 0: offset 17: unexpected 'n', want a number`},
	{name: "null index", body: `{"instances":[{"indices":[null],"values":[1]}]}`, diff: []string{diffNull},
		err: `instance 0: offset 26: unexpected 'n', want a number`},
	{name: "case-folded duplicate sparse key", body: `{"instances":[{"indices":[0],"values":[1],"Indices":[2]}]}`,
		diff: []string{diffDuplicate, diffSpelling}, err: `instance 0: offset 42: unknown sparse key "Indices"`},
	{name: "trailing garbage", body: `{"instances":[[1,2,3]]} trailing garbage`, diff: []string{diffTrailing},
		err: `bad request body: offset 24: trailing data after the request object`},

	// Keys are matched on raw bytes; known keys appear once.
	{name: "escaped sparse key", body: `{"instances":[{"indices":[0],"v\u0061lues":[1]}]}`, diff: []string{diffSpelling},
		err: `instance 0: offset 29: unknown sparse key "v\u0061lues"`},
	{name: "duplicate indices", body: `{"instances":[{"indices":[0],"indices":[0],"values":[1]}]}`, diff: []string{diffDuplicate},
		err: `instance 0: offset 29: duplicate key "indices"`},
	{name: "duplicate values", body: `{"instances":[{"values":[1],"indices":[0],"values":[1]}]}`, diff: []string{diffDuplicate},
		err: `instance 0: offset 42: duplicate key "values"`},
	{name: "duplicate instances", body: `{"instances":[[1]],"instances":[[2]]}`, diff: []string{diffDuplicate},
		err: `bad request body: offset 19: duplicate key "instances"`},
	{name: "case-folded instances", body: `{"Instances":[[1]]}`, diff: []string{diffTopFolded}, err: `no instances`},
	{name: "escaped instances", body: `{"inst\u0061nces":[[1]]}`, diff: []string{diffTopFolded}, err: `no instances`},
	// The one body the scanner accepts and the oracle does not: the
	// folded member is an unknown member to the scanner, and the
	// instances to the oracle (which then finds none).
	{name: "folded member beside instances", body: `{"instances":[[1]],"Instances":null}`, diff: []string{diffTopFolded}},
}

func TestScanGrammar(t *testing.T) {
	for _, c := range grammarCases {
		t.Run(c.name, func(t *testing.T) {
			got := ""
			if _, err := scanBody([]byte(c.body)); err != nil {
				got = err.Error()
			}
			if got != c.err {
				t.Errorf("scan error %q, want %q", got, c.err)
			}
			if diff := differential(t, []byte(c.body)); fmt.Sprint(diff) != fmt.Sprint(c.diff) {
				t.Errorf("deliberate differences %v, want %v", diff, c.diff)
			}
		})
	}
}

// TestScanSkipDepth pins the nesting bound of a skipped member to the
// oracle's: 10000 levels counting the request object.
func TestScanSkipDepth(t *testing.T) {
	for _, c := range []struct {
		arrays int
		ok     bool
	}{{maxNesting - 1, true}, {maxNesting, false}} {
		body := []byte(`{"x":` + strings.Repeat("[", c.arrays) + strings.Repeat("]", c.arrays) + `,"instances":[[1]]}`)
		_, err := scanBody(body)
		_, oerr := oracleRequest(body)
		if (err == nil) != c.ok || (oerr == nil) != c.ok {
			t.Errorf("%d nested arrays: scanner %v, oracle %v, want accepted=%v", c.arrays, err, oerr, c.ok)
		}
	}
}

// FuzzScanRequestDifferential holds the request scanner against the
// encoding/json decoder it replaced, on arbitrary bytes: the scanner
// never accepts a body the oracle rejects; where both accept, every
// instance is bitwise equal; and where only the oracle accepts, the body
// shows one of the deliberate differences (differences). The single
// exception to all three is a body that spells "instances" folded or
// escaped at the top level, which the two read differently by design.
func FuzzScanRequestDifferential(f *testing.F) {
	for _, c := range grammarCases {
		f.Add([]byte(c.body))
	}
	// The bodies of internal/router's conformance table.
	for _, body := range []string{
		`{"instances":[[0.5,-1,2],{"indices":[0,2],"values":[1.5,-2]}]}`,
		`{"instances":["nope"]}`,
		`{"instances":[{"indices":[],"values":[]}]}`,
		`{"instances":[[1,2]]}`,
	} {
		f.Add([]byte(body))
	}
	// The FuzzParseInstance seeds, as requests.
	for _, inst := range []string{
		`[0.5,-1,2]`, `{"indices":[],"values":[]}`, `[1e999,-1e-999]`, " \t\r\n[1]",
		`[[1,2],[3]]`, `{"indices":[0,2],"values":[1.5,-2]}`, `{"idx":[1],"vals":[1]}`,
	} {
		f.Add([]byte(`{"instances":[` + inst + `]}`))
	}
	rng := rand.New(rand.NewSource(1))
	f.Add(benchBody(rng, 2, 12, false))
	f.Add(benchBody(rng, 2, 40, true))
	f.Fuzz(func(t *testing.T, body []byte) {
		differential(t, body)
	})
}

// TestScanBenchShapes runs the differential over full-size benchmark
// requests, which the fuzz corpus only carries in miniature.
func TestScanBenchShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, body := range [][]byte{benchBody(rng, 32, 784, false), benchBody(rng, 32, 2000, true)} {
		if diff := differential(t, body); diff != nil {
			t.Fatalf("benchmark-shaped body rejected: %v", diff)
		}
	}
}

// TestScanZeroAlloc pins the decode path's allocation behaviour: a
// warmed staging scans a 32x784 body without allocating, and a whole
// request through the handler allocates the same number of objects
// whether it carries 4 rows or 32 (the response slices grow in size,
// not in number).
func TestScanZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are skewed by -race instrumentation")
	}
	const features = 784
	rng := rand.New(rand.NewSource(3))
	st := newStaging()
	st.body.Write(benchBody(rng, 32, features, false))
	scan := func() {
		rows, err := st.scan()
		if err != nil {
			t.Fatal(err)
		}
		if rows.Rows() != 32 {
			t.Fatalf("scan: %d rows, want 32", rows.Rows())
		}
	}
	scan()
	if allocs := testing.AllocsPerRun(20, scan); allocs != 0 {
		t.Errorf("warmed scan of a 32x%d body: %.1f allocs, want 0", features, allocs)
	}

	p := makePredictor(t, 4, features, 4)
	reg := NewRegistry()
	reg.Swap(p, ModelMeta{})
	bat := NewBatcher(reg, BatcherConfig{MaxBatch: 32, MaxLinger: 50 * time.Microsecond, QueueDepth: 64, SampleEvery: -1})
	defer bat.Close()
	h := NewServer(reg, bat, nil).Handler()
	perRequest := func(rows int) float64 {
		body := string(benchBody(rng, rows, features, false))
		return testing.AllocsPerRun(50, func() {
			w := discardWriter{header: http.Header{}}
			h.ServeHTTP(&w, httptest.NewRequest("POST", "/v1/predict", strings.NewReader(body)))
			if w.status != http.StatusOK {
				t.Fatalf("status %d", w.status)
			}
		})
	}
	perRequest(32) // warm the pool to the larger size
	if small, large := perRequest(4), perRequest(32); large > small {
		t.Errorf("handler allocations grow with row count: %.1f at 4 rows, %.1f at 32", small, large)
	}
}

// discardWriter is a ResponseWriter that keeps only the status, so the
// handler's own allocations are all AllocsPerRun sees.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header         { return w.header }
func (w *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardWriter) WriteHeader(status int)      { w.status = status }

// TestStagingPoolCap pins the pool's memory bound: a request whose
// buffers outgrow maxPooledBytes does not put them back.
func TestStagingPoolCap(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race")
	}
	small := newStaging()
	small.body.Grow(maxPooledBytes / 2)
	big := newStaging()
	big.vals = make([]float64, 0, maxPooledBytes/8+1)
	for _, st := range []*staging{small, big} {
		// A Put is what the next Get on this goroutine returns (the
		// pool's per-P private slot).
		st.release()
		if pooled := stagingPool.Get() == any(st); pooled != (st == small) {
			t.Errorf("staging of %d body + %d value bytes: pooled=%v", st.body.Cap(), 8*cap(st.vals), pooled)
		}
	}
}

// TestRowWidthErrorSurvives pins that rows of differing widths in one
// request still reach the scorer and fail there, by row, as before.
func TestRowWidthErrorSurvives(t *testing.T) {
	ts, _, done := newTestServer(t, 3, 4)
	defer done()
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(`{"instances":[[1,2,3,4],[1,2,3]]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var e struct{ Error string }
	if err := json.Unmarshal(body, &e); err != nil {
		t.Fatal(err)
	}
	if want := "row 0 has 3 features, model expects 4"; resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, want) {
		t.Fatalf("status %d, error %q, want 400 containing %q", resp.StatusCode, e.Error, want)
	}
}

// BenchmarkScanRequest times the decode of one 32x784 request — the
// serve-batch-closed shape — by the scanner and by the oracle it
// replaced.
func BenchmarkScanRequest(b *testing.B) {
	body := benchBody(rand.New(rand.NewSource(5)), 32, 784, false)
	b.Run("scanner", func(b *testing.B) {
		st := newStaging()
		st.body.Write(body)
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := st.scan(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			if _, err := oracleRequest(body); err != nil {
				b.Fatal(err)
			}
		}
	})
}
