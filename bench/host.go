package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// hostFingerprint is printed with every run so that numbers taken on
// different boxes are never compared by accident.
type hostFingerprint struct {
	NProc      int
	GOMAXPROCS int
	GoVersion  string
	CPUModel   string
}

func fingerprint() hostFingerprint {
	return hostFingerprint{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   procField("/proc/cpuinfo", "model name"),
	}
}

func (h hostFingerprint) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s cpu=%q", h.NProc, h.GOMAXPROCS, h.GoVersion, h.CPUModel)
}

// procField returns the value of the first "key : value" line of a /proc
// file, or "unknown".
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's high-water resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	v := procField("/proc/self/status", "VmHWM") // "123456 kB"
	kb, _ := strconv.ParseFloat(strings.TrimSuffix(v, " kB"), 64)
	return kb / 1024
}

// llcBytes is the size of the largest CPU cache the kernel reports, or
// 32 MiB when sysfs has none, so ceiling probes can size their arrays at
// a multiple of it.
func llcBytes() int {
	best := 0
	for i := 0; i < 8; i++ {
		b, err := os.ReadFile(fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/size", i))
		if err != nil {
			continue
		}
		s := strings.TrimSpace(string(b))
		mult := 1
		switch {
		case strings.HasSuffix(s, "K"):
			mult, s = 1<<10, strings.TrimSuffix(s, "K")
		case strings.HasSuffix(s, "M"):
			mult, s = 1<<20, strings.TrimSuffix(s, "M")
		}
		if n, err := strconv.Atoi(s); err == nil && n*mult > best {
			best = n * mult
		}
	}
	if best == 0 {
		return 32 << 20
	}
	return best
}
