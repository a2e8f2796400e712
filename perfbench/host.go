package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// recordHost notes the conditions a run's numbers depend on. A slow
// host then shows as a slow roof or a high steal share in the record,
// not as a regression.
func (b *bench) recordHost() {
	b.note("workload", b.workload)
	b.note("seed", b.seed)
	b.note("seconds", b.seconds.Seconds())
	b.note("nproc", runtime.NumCPU())
	b.note("gomaxprocs", runtime.GOMAXPROCS(0))
	b.note("go_version", runtime.Version())
	b.note("commit", sourceID())
}

// sourceID identifies the code under test: the VCS revision when the
// build recorded one, else a digest of the module's Go sources (the
// benchmark also runs from checkouts that are not repositories).
func sourceID() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	h := sha256.New()
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries only weaken the digest
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		io.WriteString(h, f)
		_, _ = io.Copy(h, fh)
		fh.Close()
	}
	return "src-" + hex.EncodeToString(h.Sum(nil))[:16]
}

// cpuTimes reads the aggregate line of /proc/stat: total jiffies and
// steal jiffies. ok is false where /proc/stat is unavailable.
func cpuTimes() (total, steal uint64, ok bool) {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	if !sc.Scan() {
		return 0, 0, false
	}
	fields := strings.Fields(sc.Text())
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	// user nice system idle iowait irq softirq steal
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(fields[i], 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 8 {
			steal = v
		}
	}
	return total, steal, true
}

// stealMeter measures the host's CPU steal share over an interval.
type stealMeter struct {
	total, steal uint64
	ok           bool
}

func startSteal() stealMeter {
	t, s, ok := cpuTimes()
	return stealMeter{t, s, ok}
}

// stop records the steal share since start under key host.steal_ratio.
func (m stealMeter) stop(b *bench) {
	t, s, ok := cpuTimes()
	if !ok || !m.ok || t <= m.total {
		b.note("host.steal_ratio", nil)
		return
	}
	b.note("host.steal_ratio", float64(s-m.steal)/float64(t-m.total))
}

// peakRSSMB returns the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, _ := strconv.ParseFloat(f[1], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// roofCopyGBps is a STREAM-style copy bandwidth measured in this
// process: GOMAXPROCS goroutines copy a 64 MiB float32 array, bytes
// read plus bytes written per second, median of 5 passes. Kernel
// bandwidth is reported as a fraction of it, which makes runs on
// different hosts comparable.
func roofCopyGBps() float64 {
	const n = 16 << 20
	src := make([]float32, n)
	dst := make([]float32, n)
	for i := range src {
		src[i] = float32(i)
	}
	workers := runtime.GOMAXPROCS(0)
	pass := func() {
		var wg sync.WaitGroup
		chunk := (n + workers - 1) / workers
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, min((w+1)*chunk, n)
			wg.Add(1)
			go func() {
				defer wg.Done()
				copy(dst[lo:hi], src[lo:hi])
			}()
		}
		wg.Wait()
	}
	pass() // fault the destination pages in
	var d []time.Duration
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		pass()
		d = append(d, time.Since(t0))
	}
	return 2 * 4 * n / (medianMS(d) / 1e3) / 1e9
}

// settle collects garbage and returns freed memory to the OS between
// set-up rounds, so every round starts from a comparable heap.
func settle() { debug.FreeOSMemory() }
