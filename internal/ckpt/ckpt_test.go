package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func sampleSnapshot() *Snapshot {
	return &Snapshot{
		Fingerprint: 0xDEADBEEFCAFEF00D,
		Iter:        42,
		Solver:      "newton-admm",
		Shared:      []float64{1.5, -2.25, math.Pi},
		Ranks: [][]float64{
			{0.5, 0.25},
			{-1, math.Inf(1)},
		},
		Trace: []TracePoint{
			{Epoch: 1, Time: 1e6, Objective: 0.69, TestAccuracy: 0.1, GradNorm: 3.2},
			{Epoch: 2, Time: 2e6, Objective: 0.42, TestAccuracy: 0.9, GradNorm: 0.01},
		},
	}
}

// TestNormativeLayoutOffsets pins the exact binary layout documented in
// DESIGN.md "Fault-tolerant training": a hand-decoded buffer, field by
// field at its documented offset. If this test needs updating, the
// format version must be bumped and DESIGN.md updated with it.
func TestNormativeLayoutOffsets(t *testing.T) {
	s := sampleSnapshot()
	buf := Encode(s)

	if string(buf[0:4]) != "NACK" {
		t.Fatalf("offset 0: magic %q, want NACK", buf[0:4])
	}
	if v := binary.LittleEndian.Uint32(buf[4:8]); v != 1 {
		t.Fatalf("offset 4: version %d, want 1", v)
	}
	if fp := binary.LittleEndian.Uint64(buf[8:16]); fp != s.Fingerprint {
		t.Fatalf("offset 8: fingerprint %016x", fp)
	}
	if it := binary.LittleEndian.Uint64(buf[16:24]); it != 42 {
		t.Fatalf("offset 16: iter %d", it)
	}
	if rc := binary.LittleEndian.Uint32(buf[24:28]); rc != 2 {
		t.Fatalf("offset 24: rank count %d", rc)
	}
	nameLen := binary.LittleEndian.Uint32(buf[28:32])
	if nameLen != uint32(len("newton-admm")) {
		t.Fatalf("offset 28: solver length %d", nameLen)
	}
	off := 32
	if got := string(buf[off : off+int(nameLen)]); got != "newton-admm" {
		t.Fatalf("offset 32: solver %q", got)
	}
	off += int(nameLen)

	// Shared section: count then values.
	if n := binary.LittleEndian.Uint32(buf[off:]); n != 3 {
		t.Fatalf("shared count %d", n)
	}
	off += 4
	if v := math.Float64frombits(binary.LittleEndian.Uint64(buf[off:])); v != 1.5 {
		t.Fatalf("shared[0] = %v", v)
	}
	off += 3 * 8

	// Per-rank sections.
	for r, want := range [][]float64{{0.5, 0.25}, {-1, math.Inf(1)}} {
		if n := binary.LittleEndian.Uint32(buf[off:]); int(n) != len(want) {
			t.Fatalf("rank %d count %d", r, n)
		}
		off += 4
		for i, w := range want {
			got := math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
			if got != w {
				t.Fatalf("rank %d[%d] = %v, want %v", r, i, got, w)
			}
			off += 8
		}
	}

	// Trace section: count, then 36-byte points.
	if n := binary.LittleEndian.Uint32(buf[off:]); n != 2 {
		t.Fatalf("trace count %d", n)
	}
	off += 4
	if e := binary.LittleEndian.Uint32(buf[off:]); e != 1 {
		t.Fatalf("trace[0].epoch %d", e)
	}
	if obj := math.Float64frombits(binary.LittleEndian.Uint64(buf[off+12:])); obj != 0.69 {
		t.Fatalf("trace[0].objective %v", obj)
	}
	off += 2 * 36

	// Tail: CRC-32C over everything before it; buffer ends exactly there.
	if off+4 != len(buf) {
		t.Fatalf("layout drift: computed end %d, buffer length %d", off+4, len(buf))
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := sampleSnapshot()
	s.Shared = append(s.Shared, math.NaN()) // NaN must survive bitwise
	got, err := Decode(Encode(s))
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != s.Fingerprint || got.Iter != s.Iter || got.Solver != s.Solver {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Shared) != len(s.Shared) || !math.IsNaN(got.Shared[3]) {
		t.Fatalf("shared mismatch: %v", got.Shared)
	}
	for i := range s.Shared[:3] {
		if got.Shared[i] != s.Shared[i] {
			t.Fatalf("shared[%d] = %v", i, got.Shared[i])
		}
	}
	if len(got.Ranks) != 2 || got.Ranks[1][1] != math.Inf(1) {
		t.Fatalf("ranks mismatch: %v", got.Ranks)
	}
	if len(got.Trace) != 2 || got.Trace[1] != s.Trace[1] {
		t.Fatalf("trace mismatch: %v", got.Trace)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	s := sampleSnapshot()
	good := Encode(s)

	// Flip one payload byte: CRC must catch it.
	bad := append([]byte(nil), good...)
	bad[40] ^= 0xFF
	if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip not caught: %v", err)
	}

	// Truncate (torn write): must fail, not panic.
	for _, cut := range []int{0, 3, 17, len(good) / 2, len(good) - 1} {
		if _, err := Decode(good[:cut]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation at %d not caught: %v", cut, err)
		}
	}

	// Wrong magic with a valid CRC over the altered body.
	bad = append([]byte(nil), good[:len(good)-4]...)
	copy(bad[0:4], "JUNK")
	bad = binary.LittleEndian.AppendUint32(bad, crcOf(bad))
	if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad magic not caught: %v", err)
	}

	// Unsupported version, CRC re-stamped.
	bad = append([]byte(nil), good[:len(good)-4]...)
	binary.LittleEndian.PutUint32(bad[4:8], 99)
	bad = binary.LittleEndian.AppendUint32(bad, crcOf(bad))
	if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad version not caught: %v", err)
	}
}

func crcOf(body []byte) uint32 {
	return crc32.Checksum(body, castagnoli)
}

func TestSaveLoadLatest(t *testing.T) {
	dir := t.TempDir()
	const fp = 7
	for iter := uint64(1); iter <= 3; iter++ {
		s := sampleSnapshot()
		s.Fingerprint = fp
		s.Iter = iter
		if err := Save(dir, s); err != nil {
			t.Fatal(err)
		}
	}
	got, err := LoadLatest(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != 3 {
		t.Fatalf("LoadLatest iter %d, want 3", got.Iter)
	}
}

func TestLoadLatestSkipsTornAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	const fp = 7
	for iter := uint64(1); iter <= 2; iter++ {
		s := sampleSnapshot()
		s.Fingerprint = fp
		s.Iter = iter
		if err := Save(dir, s); err != nil {
			t.Fatal(err)
		}
	}
	// Newest file is torn mid-write (truncated), the one before is
	// bit-flipped; LoadLatest must fall back to iter 1.
	s := sampleSnapshot()
	s.Fingerprint = fp
	s.Iter = 2
	buf := Encode(s)
	if err := os.WriteFile(filepath.Join(dir, FileName(2)), buf[:len(buf)/3], 0o644); err != nil {
		t.Fatal(err)
	}
	s.Iter = 3
	buf = Encode(s)
	buf[20] ^= 0x01
	if err := os.WriteFile(filepath.Join(dir, FileName(3)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	// A leftover tmp file must be ignored entirely.
	if err := os.WriteFile(filepath.Join(dir, "ckpt-12345.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLatest(dir, fp)
	if err != nil {
		t.Fatal(err)
	}
	if got.Iter != 1 {
		t.Fatalf("LoadLatest fell back to iter %d, want 1", got.Iter)
	}
}

func TestLoadLatestFingerprintMismatch(t *testing.T) {
	dir := t.TempDir()
	s := sampleSnapshot()
	s.Fingerprint = 111
	if err := Save(dir, s); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadLatest(dir, 222); !errors.Is(err, ErrFingerprintMismatch) {
		t.Fatalf("mismatch not typed: %v", err)
	}
}

func TestLoadLatestEmptyAndMissingDir(t *testing.T) {
	if _, err := LoadLatest(t.TempDir(), 1); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("empty dir: %v", err)
	}
	if _, err := LoadLatest(filepath.Join(t.TempDir(), "nope"), 1); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("missing dir: %v", err)
	}
}

func TestPruneKeepsNewest(t *testing.T) {
	dir := t.TempDir()
	for iter := uint64(1); iter <= 5; iter++ {
		s := sampleSnapshot()
		s.Iter = iter
		if err := Save(dir, s); err != nil {
			t.Fatal(err)
		}
	}
	if err := Prune(dir, 2); err != nil {
		t.Fatal(err)
	}
	names, _, err := listFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != FileName(4) || names[1] != FileName(5) {
		t.Fatalf("prune kept %v", names)
	}
}

// TestPruneRemovesStaleTmp: a run killed mid-save leaves a ckpt-*.tmp
// that no later LoadLatest reads; the next Save+Prune removes it and
// keeps the newest snapshots.
func TestPruneRemovesStaleTmp(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ckpt-123.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "unrelated.tmp"), []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	for iter := uint64(1); iter <= 3; iter++ {
		s := sampleSnapshot()
		s.Iter = iter
		if err := Save(dir, s); err != nil {
			t.Fatal(err)
		}
		if err := Prune(dir, 2); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	want := []string{FileName(2), FileName(3), "unrelated.tmp"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after save+prune: %v, want %v", got, want)
	}
	if _, err := LoadLatest(dir, sampleSnapshot().Fingerprint); err != nil {
		t.Fatalf("load after prune: %v", err)
	}
}

func TestClearRemovesCheckpointsAndTmp(t *testing.T) {
	dir := t.TempDir()
	s := sampleSnapshot()
	if err := Save(dir, s); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "ckpt-zzz.tmp"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "unrelated.txt"), []byte("keep"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Clear(dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "unrelated.txt" {
		t.Fatalf("clear left %v", entries)
	}
	if err := Clear(filepath.Join(dir, "missing")); err != nil {
		t.Fatalf("clear of missing dir: %v", err)
	}
}

func TestFingerprinterStable(t *testing.T) {
	build := func() uint64 {
		f := NewFingerprinter()
		f.String("newton-admm")
		f.Int(4)
		f.Float(1e-4)
		f.Bool(true)
		return f.Sum()
	}
	if build() != build() {
		t.Fatal("fingerprint not deterministic")
	}
	f := NewFingerprinter()
	f.String("giant")
	f.Int(4)
	f.Float(1e-4)
	f.Bool(true)
	if f.Sum() == build() {
		t.Fatal("different solvers collide")
	}
	// Field boundaries matter: "ab"+"c" must differ from "a"+"bc".
	g1 := NewFingerprinter()
	g1.String("ab")
	g1.String("c")
	g2 := NewFingerprinter()
	g2.String("a")
	g2.String("bc")
	if g1.Sum() == g2.Sum() {
		t.Fatal("string boundaries not encoded")
	}
}

// TestDecodeRejectsFractionalTraceTime: a trace time is a whole number
// of nanoseconds, so a fraction, NaN or -0 (which a Duration cannot
// hold, and which would re-encode to other bytes) is corrupt.
func TestDecodeRejectsFractionalTraceTime(t *testing.T) {
	good := Encode(sampleSnapshot())
	timeOff := len(good) - 4 - 2*36 + 4 // trace[0].time
	for _, v := range []float64{1.5, math.NaN(), math.Copysign(0, -1), math.Inf(1), 1 << 63} {
		bad := append([]byte(nil), good[:len(good)-4]...)
		binary.LittleEndian.PutUint64(bad[timeOff:], math.Float64bits(v))
		bad = binary.LittleEndian.AppendUint32(bad, crcOf(bad))
		if _, err := Decode(bad); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trace time %v: err = %v, want ErrCorrupt", v, err)
		}
	}
}
