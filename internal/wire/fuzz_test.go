package wire

import (
	"bytes"
	"math"
	"testing"
)

// FuzzFrameDecode drives the full decode surface — header parse, batch
// decode, every response decoder, and the training wire's vector
// decoder — with arbitrary bytes. The
// decoders must never panic, never allocate proportionally to a lying
// length prefix, and must either round up a clean parse or return an
// error, and a clean batch parse holds only finite feature values; a
// committed seed corpus under testdata/fuzz pins the
// interesting shapes (valid frames of each kind, peer hello/abort/vector
// frames, truncations at field boundaries, bad magic/version/flags,
// lying row counts, a ragged vector).
func FuzzFrameDecode(f *testing.F) {
	var e Encoder

	// Valid batch request.
	e.Begin(OpScores, 1)
	e.BatchHeader(2, 3, 2)
	e.DenseRow([]float64{1, -2, math.Pi})
	e.SparseRow([]int{0, 2}, []float64{0.5, -0.25})
	batch := append([]byte(nil), e.Bytes()...)
	f.Add(batch)
	// Truncations at the header/payload boundary and inside records.
	f.Add(batch[:HeaderSize])
	f.Add(batch[:HeaderSize+12])
	f.Add(batch[:len(batch)-3])
	// Valid responses of each kind.
	e.Begin(OpPredictResp, 2)
	e.PredictResp(1, []int{0, 4})
	f.Add(append([]byte(nil), e.Bytes()...))
	e.Begin(OpProbaResp, 3)
	e.FloatsResp(1, 1, 3, []float64{0.2, 0.3, 0.5})
	f.Add(append([]byte(nil), e.Bytes()...))
	e.Begin(OpMetaResp, 4)
	e.MetaResp(Meta{Version: 1, Classes: 4, Features: 8, TotalClasses: 4})
	f.Add(append([]byte(nil), e.Bytes()...))
	e.Begin(OpError, 5)
	e.Error(CodeQueueFull, "full")
	f.Add(append([]byte(nil), e.Bytes()...))
	// Corruptions.
	bad := append([]byte(nil), batch...)
	bad[0] = 'X'
	f.Add(bad)
	lying := append([]byte(nil), batch...)
	lying[16], lying[17], lying[18], lying[19] = 0xFF, 0xFF, 0xFF, 0x03 // huge length
	f.Add(lying)
	// Non-finite feature values, dense and sparse.
	e.Begin(OpProba, 6)
	e.BatchHeader(2, 2, 0)
	e.DenseRow([]float64{1, math.NaN()})
	e.SparseRow([]int{1}, []float64{math.Inf(-1)})
	f.Add(append([]byte(nil), e.Bytes()...))

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := ParseHeader(data)
		if err != nil {
			return
		}
		if len(data) < HeaderSize+int(h.Len) {
			// Stream-level truncation is Reader's job; exercise it too.
			r := NewReader(bytes.NewReader(data))
			if _, _, err := r.Next(); err == nil {
				t.Fatal("Reader accepted a frame shorter than its header length")
			}
			return
		}
		payload := data[HeaderSize : HeaderSize+int(h.Len)]

		// Feed the payload to every decoder regardless of opcode: a
		// confused peer must get an error, never a panic or a bogus
		// success that reads out of bounds.
		var b Batch
		if err := b.Decode(payload); err == nil {
			// A clean parse must re-encode to the same record count.
			if b.Rows() != len(b.Kind) || len(b.Dense)+len(b.Idx) != b.Rows() {
				t.Fatalf("inconsistent batch: rows=%d dense=%d sparse=%d", b.Rows(), len(b.Dense), len(b.Idx))
			}
			for _, row := range b.Dense {
				if len(row) != b.Features {
					t.Fatalf("dense row width %d, features %d", len(row), b.Features)
				}
				assertFinite(t, row)
			}
			for i := range b.Idx {
				if len(b.Idx[i]) != len(b.Val[i]) {
					t.Fatalf("sparse row %d: %d indices, %d values", i, len(b.Idx[i]), len(b.Val[i]))
				}
				assertFinite(t, b.Val[i])
			}
		}
		ints := make([]int, 64)
		if _, n, err := DecodePredictResp(payload, ints); err == nil && n > 64 {
			t.Fatalf("predict decode wrote %d rows into 64 slots", n)
		}
		floats := make([]float64, 256)
		if _, rows, cols, err := DecodeFloatsResp(payload, floats); err == nil && rows*cols > 256 {
			t.Fatalf("floats decode wrote %dx%d into 256 slots", rows, cols)
		}
		DecodeMetaResp(payload)
		DecodeReloadResp(payload)
		DecodeError(payload)
		// The training wire's vector decoder accepts exactly the whole-
		// float64 payloads, and what it accepts re-encodes bit for bit.
		if v, err := DecodeVector(payload); err == nil {
			var e Encoder
			e.Begin(OpVector, h.Corr)
			e.Vector(v)
			if !bytes.Equal(e.Bytes()[HeaderSize:], payload) {
				t.Fatal("vector payload does not round-trip bitwise")
			}
		} else if len(payload)%8 == 0 {
			t.Fatalf("whole-float64 vector payload rejected: %v", err)
		}
	})
}

// assertFinite fails on a NaN or ±Inf value a clean batch decode let
// through.
func assertFinite(t *testing.T, vals []float64) {
	t.Helper()
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("clean batch parse holds non-finite value %v", v)
		}
	}
}
