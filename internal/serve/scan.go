package serve

import (
	"bytes"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"newtonadmm/internal/wire"
)

// The request decoder: one strictly validating pass over the body of
// POST /v1/predict and /v1/proba that writes numbers straight into flat
// staging buffers. DESIGN.md "Request grammar" is the spec; the
// encoding/json decoder this replaced is the differential oracle in
// scan_oracle_test.go.

// maxPooledBytes is the most buffer capacity a staging may take back
// to the pool; a larger one is dropped, so one huge request does not
// pin its memory for the life of the process.
const maxPooledBytes = 4 << 20

// maxNesting bounds the depth of a skipped member, at encoding/json's
// value.
const maxNesting = 10000

// staging is one request's decode scratch: the body, every dense row
// and sparse value in one flat []float64, every sparse index in one
// flat []int. The batch's rows are views into these, so a staging goes
// back to the pool only when nothing can still read the rows: after
// Tier.Score has returned and the response is written.
type staging struct {
	body  bytes.Buffer
	vals  []float64
	idx   []int
	rows  []rowSpan
	batch wire.Batch
}

// rowSpan locates one instance in the flat buffers. The views are cut
// from spans after the scan, because appends move the buffers.
type rowSpan struct {
	sparse         bool
	v0, v1, i0, i1 int
}

// newStaging returns a staging whose flat buffers are non-nil, so that
// an empty row is an empty slice and not a nil one.
func newStaging() *staging { return &staging{vals: []float64{}, idx: []int{}} }

var stagingPool = sync.Pool{New: func() any { return newStaging() }}

// release returns st to the pool unless it outgrew maxPooledBytes (a
// rowSpan is 40 bytes, a batch row 1 kind byte and up to two 24-byte
// slice headers).
func (st *staging) release() {
	b := &st.batch
	if st.body.Cap()+8*(cap(st.vals)+cap(st.idx))+40*cap(st.rows)+cap(b.Kind)+24*(cap(b.Dense)+cap(b.Idx)+cap(b.Val)) <= maxPooledBytes {
		stagingPool.Put(st)
	}
}

// read fills st.body from r's body, reading at most wire.MaxPayload
// bytes — the bound the binary plane puts on a request — so a client
// cannot make the server buffer without limit.
func (st *staging) read(w http.ResponseWriter, r *http.Request) error {
	st.body.Reset()
	if n := r.ContentLength; n > 0 && n <= maxPooledBytes {
		st.body.Grow(int(n) + bytes.MinRead) // one allocation, with room for the read that reports EOF
	}
	_, err := st.body.ReadFrom(http.MaxBytesReader(w, r.Body, wire.MaxPayload))
	return err
}

// scan decodes st.body, one {"instances":[...]} object, and returns its
// rows as a batch of capacity-clamped views into st's flat buffers. An
// error names the byte offset, under "instance N:" when inside an
// instance.
func (st *staging) scan() (*wire.Batch, error) {
	st.vals, st.idx, st.rows = st.vals[:0], st.idx[:0], st.rows[:0]
	s := scanner{b: st.body.Bytes()}
	if err := s.request(st); err != nil {
		return nil, err
	}
	if len(st.rows) == 0 {
		return nil, errors.New("no instances")
	}
	return st.cut(), nil
}

// cut builds st.batch from the row spans.
func (st *staging) cut() *wire.Batch {
	st.batch.Reset()
	for _, r := range st.rows {
		if r.sparse {
			st.batch.AddCSR(st.idx[r.i0:r.i1:r.i1], st.vals[r.v0:r.v1:r.v1])
		} else {
			st.batch.AddDense(st.vals[r.v0:r.v1:r.v1])
		}
	}
	return &st.batch
}

// scanner is a cursor over one JSON text. Its error is sticky: the
// first failure is kept and moves the cursor to the end of the input,
// where every later step finds nothing to consume. The cursor never
// passes the end: it advances only over a byte that was just matched.
type scanner struct {
	b   []byte
	pos int
	err error
}

// fail records an error about the byte at offset at.
func (s *scanner) fail(at int, format string, args ...any) {
	if s.err == nil {
		s.err = fmt.Errorf("offset %d: %s", at, fmt.Sprintf(format, args...))
	}
	s.pos = len(s.b)
}

// expected fails because the byte at the cursor does not start want.
func (s *scanner) expected(want string) {
	if s.pos < len(s.b) {
		s.fail(s.pos, "unexpected %q, want %s", s.b[s.pos], want)
	} else {
		s.fail(s.pos, "unexpected end of input, want %s", want)
	}
}

// peek returns the byte at the cursor, or 0 at the end of the input (a
// literal NUL starts nothing either).
func (s *scanner) peek() byte {
	if s.pos < len(s.b) {
		return s.b[s.pos]
	}
	return 0
}

func (s *scanner) ws() {
	for c := s.peek(); c == ' ' || c == '\t' || c == '\n' || c == '\r'; c = s.peek() {
		s.pos++
	}
}

// eat consumes the byte c, which must be at the cursor.
func (s *scanner) eat(c byte) {
	if s.peek() != c {
		s.expected(fmt.Sprintf("%q", c))
		return
	}
	s.pos++
}

// open consumes the bracket that opens an array or object. It returns
// true, the first value of more's flag.
func (s *scanner) open(bracket byte) bool {
	s.eat(bracket)
	return true
}

// more reports whether another element of the array or object that end
// closes follows, leaving the cursor on it: past the ',' unless *first,
// which it clears. At end it consumes it and reports false.
func (s *scanner) more(first *bool, end byte) bool {
	s.ws()
	switch c := s.peek(); {
	case c == end:
		s.pos++
		return false
	case *first && s.pos < len(s.b):
		*first = false
	case !*first && c == ',':
		s.pos++
		s.ws()
	case *first:
		s.expected(fmt.Sprintf("an element or %q", end))
	default:
		s.expected(fmt.Sprintf("',' or %q", end))
	}
	return s.err == nil
}

// key consumes a member's key and colon, leaving the cursor on the
// value, and returns the key's raw bytes, quotes included. Keys are
// matched on these bytes, so an escaped or case-folded spelling of a
// known key is an unknown key.
func (s *scanner) key() []byte {
	key := s.str()
	s.ws()
	s.eat(':')
	s.ws()
	return key
}

// str consumes the string at the cursor and returns its raw bytes.
func (s *scanner) str() []byte {
	start := s.pos
	s.eat('"')
	for s.pos < len(s.b) {
		c := s.b[s.pos]
		s.pos++
		switch {
		case c == '"':
			return s.b[start:s.pos]
		case c < 0x20:
			s.fail(s.pos-1, "control character in string")
		case c == '\\':
			s.escape()
		}
	}
	s.expected(`'"'`)
	return nil
}

// escape consumes what follows the backslash of a string escape.
func (s *scanner) escape() {
	switch s.peek() {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		s.pos++
	case 'u':
		s.pos++
		for k := 0; k < 4; k++ {
			if !isHex(s.peek()) {
				s.expected("a hex digit")
				return
			}
			s.pos++
		}
	default:
		s.expected("an escape character")
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// digits returns the end of the run of digits that starts at b[i].
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// number consumes the number at the cursor — the JSON grammar exactly,
// which has no spelling for NaN or an infinity — and returns its bytes;
// integer reports that it has neither fraction nor exponent.
func (s *scanner) number() (tok []byte, integer bool) {
	b, i := s.b, s.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	// Each run of digits must be non-empty: from marks where the current
	// one starts and want names what is missing if it is empty.
	from, want := i, "a number"
	if i < len(b) && b[i] == '0' {
		i++ // a leading zero stands alone
	} else {
		i = digits(b, i)
	}
	integer = true
	if i > from && i < len(b) && b[i] == '.' {
		from, want, integer = i+1, "a digit", false
		i = digits(b, from)
	}
	if i > from && i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		from, want, integer = i, "a digit", false
		i = digits(b, from)
	}
	if i == from {
		s.pos = i
		s.expected(want)
		return nil, false
	}
	tok, s.pos = b[s.pos:i], i
	return tok, integer
}

// float scans a number as strconv rounds it to a float64: a magnitude
// too large for one is an error, one too small is 0.
func (s *scanner) float() float64 {
	at := s.pos
	tok, _ := s.number()
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		s.fail(at, "number %s out of range", tok)
	}
	return f
}

// index scans a sparse index: an integer token (1.0 and 1e2 are not)
// that fits an int.
func (s *scanner) index() int {
	at := s.pos
	tok, integer := s.number()
	n, err := strconv.Atoi(string(tok))
	if err != nil || !integer {
		s.fail(at, "index %s is not an integer in range", tok)
	}
	return n
}

// floats appends the numbers of the array at the cursor to dst.
func (s *scanner) floats(dst []float64) []float64 {
	for first := s.open('['); s.more(&first, ']'); {
		dst = append(dst, s.float())
	}
	return dst
}

func (s *scanner) indices(dst []int) []int {
	for first := s.open('['); s.more(&first, ']'); {
		dst = append(dst, s.index())
	}
	return dst
}

// skip consumes and validates any JSON value; depth counts the arrays
// and objects around it.
func (s *scanner) skip(depth int) {
	switch c := s.peek(); {
	case c == '"':
		s.str()
	case c == '-' || isDigit(c):
		s.number()
	case (c == '[' || c == '{') && depth >= maxNesting:
		s.fail(s.pos, "value nested deeper than %d", maxNesting)
	case c == '[':
		for first := s.open('['); s.more(&first, ']'); {
			s.skip(depth + 1)
		}
	case c == '{':
		for first := s.open('{'); s.more(&first, '}'); {
			s.key()
			s.skip(depth + 1)
		}
	case bytes.HasPrefix(s.b[s.pos:], []byte("true")), bytes.HasPrefix(s.b[s.pos:], []byte("null")):
		s.pos += 4
	case bytes.HasPrefix(s.b[s.pos:], []byte("false")):
		s.pos += 5
	default:
		s.expected("a value")
	}
}

// request scans the whole body: one object whose "instances" member is
// the array of instances, its other members skipped, and nothing after
// it.
func (s *scanner) request(st *staging) error {
	seen := false
	s.ws()
	for first := s.open('{'); s.more(&first, '}'); {
		at := s.pos
		switch key := s.key(); {
		case string(key) != `"instances"`:
			s.skip(1)
		case seen:
			s.fail(at, `duplicate key "instances"`)
		default:
			seen = true
			for first := s.open('['); s.more(&first, ']'); {
				if s.instance(st); s.err != nil {
					return fmt.Errorf("instance %d: %w", len(st.rows), s.err)
				}
			}
		}
	}
	if s.ws(); s.pos < len(s.b) {
		s.fail(s.pos, "trailing data after the request object")
	}
	if s.err != nil {
		return fmt.Errorf("bad request body: %w", s.err)
	}
	return nil
}

// instance scans one instance into st: a dense array of numbers, or a
// sparse {"indices":[...],"values":[...]} object with exactly those
// keys, each once, in either order. Any other key is an error — a
// typo'd one must not become a silently all-zero row scored as the
// reference class.
func (s *scanner) instance(st *staging) {
	row := rowSpan{v0: len(st.vals), i0: len(st.idx)}
	switch s.peek() {
	case '[':
		st.vals = s.floats(st.vals)
	case '{':
		row.sparse = true
		var haveIdx, haveVal bool
		for first := s.open('{'); s.more(&first, '}'); {
			at := s.pos
			switch key := s.key(); {
			case string(key) == `"indices"` && !haveIdx:
				haveIdx, st.idx = true, s.indices(st.idx)
			case string(key) == `"values"` && !haveVal:
				haveVal, st.vals = true, s.floats(st.vals)
			case string(key) == `"indices"` || string(key) == `"values"`:
				s.fail(at, "duplicate key %s", key)
			default:
				s.fail(at, "unknown sparse key %s", key)
			}
		}
		if s.err == nil && !(haveIdx && haveVal) {
			s.err = errors.New(`sparse instance needs both "indices" and "values"`)
		}
	default:
		s.err = errors.New("instance must be an array or an {indices, values} object")
	}
	if s.err == nil {
		row.v1, row.i1 = len(st.vals), len(st.idx)
		st.rows = append(st.rows, row)
	}
}
