// Package ckpt provides crash-safe checkpointing for distributed
// training runs: versioned, CRC-checked snapshots of the full solver
// state, written atomically (tmp + fsync + rename) so a crash at any
// instant leaves either the previous checkpoint or the new one — never a
// torn file that resumes garbage. LoadLatest walks backwards from the
// newest file past anything torn or corrupt to the last good snapshot,
// and rejects checkpoints whose dataset/config fingerprint does not
// match the resuming run, so a checkpoint from a different problem can
// never be silently loaded.
//
// The binary layout is normative and pinned by a decoder test (see
// DESIGN.md "Fault-tolerant training"); all integers and floats are
// little-endian:
//
//	offset  size  field
//	0       4     magic "NACK"
//	4       4     format version (uint32, currently 1)
//	8       8     fingerprint (uint64, FNV-1a of solver+dataset+config)
//	16      8     iter (uint64, last completed outer iteration)
//	24      4     rank count (uint32)
//	28      4     solver name length (uint32)
//	32      n     solver name bytes
//	...           shared section:   count uint32, count × float64
//	...           per-rank section (rank count times): count uint32, count × float64
//	...           trace section: count uint32, then per point:
//	              epoch uint32, time float64 (whole ns), objective float64,
//	              testAccuracy float64, gradNorm float64  (36 bytes)
//	tail    4     CRC-32C (Castagnoli) of everything before it
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// Magic identifies a checkpoint file; Version is the current format.
const (
	Magic   = "NACK"
	Version = 1
)

var (
	// ErrNoCheckpoint means no usable checkpoint exists in the directory
	// (empty, missing, or every candidate was torn/corrupt).
	ErrNoCheckpoint = errors.New("ckpt: no usable checkpoint")
	// ErrFingerprintMismatch means the latest good checkpoint belongs to a
	// different solver/dataset/config than the resuming run.
	ErrFingerprintMismatch = errors.New("ckpt: fingerprint mismatch")
	// ErrCorrupt means a file failed structural or CRC validation.
	ErrCorrupt = errors.New("ckpt: corrupt checkpoint")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// TracePoint is one epoch of a convergence trace: what the training
// Recorder appends, a checkpoint stores for a bitwise resume and a model
// file carries.
type TracePoint struct {
	Epoch        int
	Time         time.Duration // virtual wall time at the epoch's end, stored as float64 bits
	Objective    float64       // the global training objective F
	TestAccuracy float64       // NaN when not measured
	GradNorm     float64       // ||grad F||; NaN when not measured
}

func (p TracePoint) String() string {
	return fmt.Sprintf("epoch %d t=%v F=%.6g acc=%.4f", p.Epoch, p.Time, p.Objective, p.TestAccuracy)
}

// Snapshot is the full recoverable state of a training run at an outer
// iteration boundary.
type Snapshot struct {
	// Fingerprint binds the snapshot to a solver+dataset+config; resume
	// rejects a mismatch.
	Fingerprint uint64
	// Iter is the last completed outer iteration.
	Iter uint64
	// Solver names the algorithm ("newton-admm", "giant", ...).
	Solver string
	// Shared is replicated state identical on all ranks (e.g. the ADMM
	// consensus iterate z and its previous value).
	Shared []float64
	// Ranks holds each rank's private state (e.g. x, duals, penalty-policy
	// state), indexed by rank.
	Ranks [][]float64
	// Trace is the convergence trace accumulated so far.
	Trace []TracePoint
}

// Fingerprinter accumulates run-identity fields into a stable 64-bit
// hash (FNV-1a). Field order matters; both the saving and resuming run
// must feed identical sequences.
type Fingerprinter struct{ h uint64 }

// NewFingerprinter starts an empty fingerprint.
func NewFingerprinter() *Fingerprinter {
	f := fnv.New64a()
	return &Fingerprinter{h: f.Sum64()}
}

func (f *Fingerprinter) bytes(b []byte) {
	h := f.h
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211 // FNV-1a prime
	}
	f.h = h
}

// String folds a labeled string field into the fingerprint.
func (f *Fingerprinter) String(s string) {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
	f.bytes(n[:])
	f.bytes([]byte(s))
}

// Int folds an integer field into the fingerprint.
func (f *Fingerprinter) Int(v int) { f.Uint64(uint64(int64(v))) }

// Uint64 folds a 64-bit field into the fingerprint.
func (f *Fingerprinter) Uint64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	f.bytes(b[:])
}

// Float folds a float64 field bitwise into the fingerprint.
func (f *Fingerprinter) Float(v float64) { f.Uint64(math.Float64bits(v)) }

// Bool folds a boolean field into the fingerprint.
func (f *Fingerprinter) Bool(v bool) {
	if v {
		f.Uint64(1)
	} else {
		f.Uint64(0)
	}
}

// Sum returns the accumulated fingerprint.
func (f *Fingerprinter) Sum() uint64 { return f.h }

func putF64s(buf []byte, vals []float64) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint32(n[:], uint32(len(vals)))
	buf = append(buf, n[:]...)
	var v [8]byte
	for _, x := range vals {
		binary.LittleEndian.PutUint64(v[:], math.Float64bits(x))
		buf = append(buf, v[:]...)
	}
	return buf
}

// Encode serializes the snapshot into the normative binary layout,
// including the trailing CRC.
func Encode(s *Snapshot) []byte {
	buf := make([]byte, 0, 32+len(s.Solver)+8*(len(s.Shared)+1)+36*len(s.Trace))
	buf = append(buf, Magic...)
	buf = binary.LittleEndian.AppendUint32(buf, Version)
	buf = binary.LittleEndian.AppendUint64(buf, s.Fingerprint)
	buf = binary.LittleEndian.AppendUint64(buf, s.Iter)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Ranks)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Solver)))
	buf = append(buf, s.Solver...)
	buf = putF64s(buf, s.Shared)
	for _, r := range s.Ranks {
		buf = putF64s(buf, r)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Trace)))
	for _, p := range s.Trace {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Epoch))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(p.Time)))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.Objective))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.TestAccuracy))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(p.GradNorm))
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
	return buf
}

type reader struct {
	buf []byte
	off int
}

func (r *reader) u32() (uint32, error) {
	if r.off+4 > len(r.buf) {
		return 0, fmt.Errorf("%w: truncated at offset %d", ErrCorrupt, r.off)
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) u64() (uint64, error) {
	if r.off+8 > len(r.buf) {
		return 0, fmt.Errorf("%w: truncated at offset %d", ErrCorrupt, r.off)
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) f64s() ([]float64, error) {
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	if r.off+8*int(n) > len(r.buf) {
		return nil, fmt.Errorf("%w: section of %d floats truncated at offset %d", ErrCorrupt, n, r.off)
	}
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
		r.off += 8
	}
	return vals, nil
}

// Decode parses and validates a checkpoint buffer (magic, version,
// structure, CRC). Any failure returns an error wrapping ErrCorrupt.
func Decode(buf []byte) (*Snapshot, error) {
	if len(buf) < 36 {
		return nil, fmt.Errorf("%w: %d bytes is below the minimum frame", ErrCorrupt, len(buf))
	}
	if string(buf[0:4]) != Magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, buf[0:4])
	}
	body, tail := buf[:len(buf)-4], buf[len(buf)-4:]
	if got, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(tail); got != want {
		return nil, fmt.Errorf("%w: CRC mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	r := &reader{buf: body, off: 4}
	ver, err := r.u32()
	if err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, ver)
	}
	s := &Snapshot{}
	if s.Fingerprint, err = r.u64(); err != nil {
		return nil, err
	}
	if s.Iter, err = r.u64(); err != nil {
		return nil, err
	}
	rankCount, err := r.u32()
	if err != nil {
		return nil, err
	}
	nameLen, err := r.u32()
	if err != nil {
		return nil, err
	}
	if r.off+int(nameLen) > len(body) {
		return nil, fmt.Errorf("%w: solver name truncated", ErrCorrupt)
	}
	s.Solver = string(body[r.off : r.off+int(nameLen)])
	r.off += int(nameLen)
	if s.Shared, err = r.f64s(); err != nil {
		return nil, err
	}
	// Every rank section holds at least its 4-byte length, so a count
	// the rest of the body cannot hold is corrupt; checking it first
	// keeps a hostile count from sizing the allocation.
	if int(rankCount) > (len(body)-r.off)/4 {
		return nil, fmt.Errorf("%w: %d rank sections in %d remaining bytes", ErrCorrupt, rankCount, len(body)-r.off)
	}
	s.Ranks = make([][]float64, rankCount)
	for i := range s.Ranks {
		if s.Ranks[i], err = r.f64s(); err != nil {
			return nil, err
		}
	}
	traceLen, err := r.u32()
	if err != nil {
		return nil, err
	}
	if r.off+36*int(traceLen) > len(body) {
		return nil, fmt.Errorf("%w: trace of %d points truncated", ErrCorrupt, traceLen)
	}
	s.Trace = make([]TracePoint, traceLen)
	for i := range s.Trace {
		epoch, _ := r.u32()
		tn, _ := r.u64()
		obj, _ := r.u64()
		acc, _ := r.u64()
		gn, _ := r.u64()
		if t := math.Float64frombits(tn); !(t >= -1<<63 && t < 1<<63) || math.Float64bits(float64(time.Duration(t))) != tn {
			return nil, fmt.Errorf("%w: trace point %d time %v ns is not a time.Duration", ErrCorrupt, i, t)
		}
		s.Trace[i] = TracePoint{
			Epoch:        int(epoch),
			Time:         time.Duration(math.Float64frombits(tn)),
			Objective:    math.Float64frombits(obj),
			TestAccuracy: math.Float64frombits(acc),
			GradNorm:     math.Float64frombits(gn),
		}
	}
	if r.off != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body)-r.off)
	}
	return s, nil
}

// FileName returns the canonical checkpoint file name for an iteration.
// Names sort lexicographically in iteration order, which LoadLatest
// relies on.
func FileName(iter uint64) string { return fmt.Sprintf("ckpt-%08d.nack", iter) }

// Save writes the snapshot into dir, creating dir if needed, as
// FileName(s.Iter) through WriteFile.
func Save(dir string, s *Snapshot) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("ckpt: mkdir: %w", err)
	}
	return WriteFile(filepath.Join(dir, FileName(s.Iter)), s)
}

// WriteFile atomically writes the encoded snapshot to path: a temp file
// in path's directory (which must exist), fsync, rename over path, then
// fsync the directory. A crash leaves the old file or the complete new
// one; the temp name, path's base plus "-*.tmp", matches ckpt-*.tmp in a
// checkpoint directory, so Prune removes what a killed write left.
func WriteFile(path string, s *Snapshot) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+"-*.tmp")
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if err = tmp.Chmod(0o644); err == nil { // CreateTemp's 0600 would hide a model file from its server
		_, err = tmp.Write(Encode(s))
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ckpt: %w", err)
	}
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// listFiles walks dir once and returns its snapshot files
// (ckpt-*.nack) in ascending iteration order and the temp files a Save
// killed mid-write leaves behind (ckpt-*.tmp). A missing dir holds
// neither.
func listFiles(dir string) (snaps, temps []string, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("ckpt: read dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if !e.Type().IsRegular() || !strings.HasPrefix(name, "ckpt-") {
			continue
		}
		switch {
		case strings.HasSuffix(name, ".nack"):
			snaps = append(snaps, name)
		case strings.HasSuffix(name, ".tmp"):
			temps = append(temps, name)
		}
	}
	sort.Strings(snaps)
	return snaps, temps, nil
}

// LoadLatest returns the newest structurally-valid snapshot in dir whose
// fingerprint matches, skipping torn or corrupt files back to the last
// good one. It returns ErrNoCheckpoint when nothing usable exists and
// ErrFingerprintMismatch when the newest good snapshot belongs to a
// different run configuration (a mismatch is a hard error, not a skip:
// silently falling back to an older matching file would resume a
// different run's state).
func LoadLatest(dir string, fingerprint uint64) (*Snapshot, error) {
	names, _, err := listFiles(dir)
	if err != nil {
		return nil, err
	}
	for i := len(names) - 1; i >= 0; i-- {
		buf, err := os.ReadFile(filepath.Join(dir, names[i]))
		if err != nil {
			continue
		}
		s, err := Decode(buf)
		if err != nil {
			continue // torn or corrupt: fall back to the previous file
		}
		if s.Fingerprint != fingerprint {
			return nil, fmt.Errorf("%w: checkpoint %s has %016x, run has %016x",
				ErrFingerprintMismatch, names[i], s.Fingerprint, fingerprint)
		}
		return s, nil
	}
	return nil, ErrNoCheckpoint
}

// Prune removes the stale temp files of killed saves and all but the
// newest keep snapshots (keep <= 0 keeps every snapshot). Corrupt
// snapshots count like any other; Save+Prune with keep >= 2 therefore
// always retains at least one good snapshot. The directory's writer
// calls it after its own Save has renamed its temp file.
func Prune(dir string, keep int) error {
	snaps, temps, err := listFiles(dir)
	if err != nil {
		return err
	}
	if keep > 0 && len(snaps) > keep {
		temps = append(temps, snaps[:len(snaps)-keep]...)
	}
	return remove(dir, temps, "prune")
}

// Clear removes every snapshot and stale temp file in dir. A fresh
// (non-resume) run calls it so a restart within that run can never
// load a stale snapshot from an older run in the same directory.
func Clear(dir string) error {
	snaps, temps, err := listFiles(dir)
	if err != nil {
		return err
	}
	return remove(dir, append(snaps, temps...), "clear")
}

func remove(dir string, names []string, op string) error {
	for _, name := range names {
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return fmt.Errorf("ckpt: %s: %w", op, err)
		}
	}
	return nil
}
