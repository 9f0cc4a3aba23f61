package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
)

// hostileRankCount is a 45-byte CRC-valid file whose rank count is
// 0xFFFFFFFF: a decoder that sized its rank table from the count before
// checking the body could hold it asked for a 103 GB allocation.
func hostileRankCount() []byte {
	good := Encode(&Snapshot{Solver: "giant"})
	body := append([]byte(nil), good[:len(good)-8]...) // drop the trace count and the CRC
	binary.LittleEndian.PutUint32(body[24:28], 0xFFFFFFFF)
	return binary.LittleEndian.AppendUint32(body, crcOf(body))
}

func TestDecodeRejectsHostileRankCount(t *testing.T) {
	buf := hostileRankCount()
	if len(buf) != 45 {
		t.Fatalf("hostile file is %d bytes, want 45", len(buf))
	}
	if _, err := Decode(buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("rank count 0xFFFFFFFF: err = %v, want ErrCorrupt", err)
	}
}

// FuzzDecode covers checkpoint and model files alike (a model file is a
// one-rank snapshot): no input panics Decode, every failure is
// ErrCorrupt, and a successful decode re-encodes to the same bytes. Each
// input is decoded as given and with its CRC re-stamped, so mutations
// reach the parser past the checksum.
func FuzzDecode(f *testing.F) {
	f.Add(Encode(sampleSnapshot()))
	f.Add(Encode(&Snapshot{Solver: "newton-admm", Shared: []float64{1, 2}, Ranks: [][]float64{{}, {3}}}))
	f.Add(Encode(&Snapshot{}))
	f.Add(hostileRankCount())
	// A model file as Model.Save writes it: the "nadmodel" tag, iter 0,
	// class-major weights and one rank section of seven fields.
	f.Add(Encode(&Snapshot{
		Fingerprint: 0x6c65646f6d64616e, Solver: "newton-admm",
		Shared: []float64{0.5, -1.25, 2, 0.125},
		Ranks:  [][]float64{{3, 2, 4, 0.75, 3e9, 1e9, 0}},
		Trace:  []TracePoint{{Epoch: 1, Time: 1e9, Objective: 0.5, TestAccuracy: 0.75, GradNorm: math.NaN()}},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkDecode(t, data)
		if len(data) >= 4 {
			body := data[: len(data)-4 : len(data)-4]
			checkDecode(t, binary.LittleEndian.AppendUint32(body, crcOf(body)))
		}
	})
}

func checkDecode(t *testing.T, buf []byte) {
	s, err := Decode(buf)
	if err != nil {
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("error %v does not wrap ErrCorrupt", err)
		}
		return
	}
	if again := Encode(s); !bytes.Equal(again, buf) {
		t.Fatalf("decoded snapshot re-encodes to %d different bytes (input %d)", len(again), len(buf))
	}
}
