package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strconv"
	"syscall"
	"time"
)

// childResult is one scenario as measured inside its own process, sent
// to the parent as the child's last line of standard output. A fresh
// process per scenario gives peak RSS with no carry-over from earlier
// runs, and starts every sample from the same state.
type childResult struct {
	WallS float64 `json:"wall_s"`
	// CalS is the calibration kernel's round time just after the scenario.
	CalS        float64            `json:"cal_s"`
	CPUS        float64            `json:"cpu_s"`
	AllocBytes  uint64             `json:"alloc_bytes"`
	PeakRSSKB   int64              `json:"peak_rss_kb"`
	Err         string             `json:"err,omitempty"`
	Failure     string             `json:"failure,omitempty"`
	Note        string             `json:"note,omitempty"`
	Fingerprint string             `json:"fingerprint,omitempty"`
	Counts      map[string]float64 `json:"counts,omitempty"`
	// Samples counts CPU-profile samples per layer (profiled runs only).
	Samples map[string]int64 `json:"samples,omitempty"`
}

// problem returns why the scenario counts as failed, or "".
func (r *childResult) problem() string {
	if r.Err != "" {
		return "error: " + r.Err
	}
	return r.Failure
}

// measureScenario runs one scenario in this process and measures it.
func measureScenario(w *workload, seed uint64, o runOpts, profile bool) childResult {
	var prof bytes.Buffer
	if profile {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return childResult{Err: fmt.Sprintf("start CPU profile: %v", err)}
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	cpu0 := cpuSeconds()
	start := time.Now()
	out, err := w.run(seed, o)
	wall := time.Since(start).Seconds()
	cpu := cpuSeconds() - cpu0
	runtime.ReadMemStats(&after)
	if profile {
		pprof.StopCPUProfile()
	}
	rss := peakRSSKB()
	cal := calibrate(calReps(w)) // after the RSS reading, which it would raise

	r := childResult{
		WallS:       wall,
		CalS:        cal,
		CPUS:        cpu,
		AllocBytes:  after.TotalAlloc - before.TotalAlloc,
		PeakRSSKB:   rss,
		Failure:     out.failure,
		Note:        out.note,
		Fingerprint: out.fingerprint,
		Counts:      out.counts,
	}
	if err != nil {
		r.Err = err.Error()
		return r
	}
	if profile {
		samples, err := layerSamples(prof.Bytes())
		if err != nil {
			r.Err = fmt.Sprintf("read CPU profile: %v", err)
		}
		r.Samples = samples
	}
	return r
}

// spawnScenario runs one scenario in a child process of this binary and
// returns its measurement; a child that cannot run or report comes back
// with Err set. The child's standard error passes through.
func spawnScenario(w *workload, seed uint64, o runOpts, profile bool) childResult {
	fail := func(err error) childResult {
		return childResult{Err: fmt.Sprintf("%s scenario seed %d: %v", w.name, seed, err)}
	}
	self, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	args := []string{
		"-child", "-workload", w.name,
		"-scenario-seed", strconv.FormatUint(seed, 10),
		"-shards", strconv.Itoa(o.shards),
	}
	if o.census {
		args = append(args, "-census")
	}
	if profile {
		args = append(args, "-profile")
	}
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return fail(err)
	}
	var r childResult
	if err := json.Unmarshal(lastLine(stdout), &r); err != nil {
		return fail(fmt.Errorf("decode child result: %w", err))
	}
	return r
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// cpuSeconds is this process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSKB is this process's peak resident set (VmHWM) in KiB.
func peakRSSKB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var kb int64
		if _, err := fmt.Sscanf(sc.Text(), "VmHWM: %d kB", &kb); err == nil {
			return kb
		}
	}
	return 0
}
