package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: sharqfec
cpu: Intel(R) Xeon(R) Processor
BenchmarkCensusBind-2   	       8	 137563410 ns/op	45608124 B/op	  303909 allocs/op
BenchmarkCensusBind-2   	       8	 139000000 ns/op	45608124 B/op	  303909 allocs/op
BenchmarkShardedFig17/shards=1-2 	       1	1338988185 ns/op
PASS
`

func TestSummarizeRecordsHost(t *testing.T) {
	rep, err := summarize(strings.NewReader(sampleOutput), "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.CPU != "Intel(R) Xeon(R) Processor" {
		t.Errorf("CPU = %q", rep.CPU)
	}
	if rep.GOMAXPROCS != 2 {
		t.Errorf("GOMAXPROCS = %d, want 2", rep.GOMAXPROCS)
	}
	if r, ok := rep.Benchmarks["BenchmarkCensusBind"]; !ok || r.Runs != 2 || r.AllocsPerOp != 303909 {
		t.Errorf("BenchmarkCensusBind = %+v, %v", r, ok)
	}
	if _, ok := rep.Benchmarks["BenchmarkShardedFig17/shards=1"]; !ok {
		t.Errorf("sub-benchmark name kept its -N suffix: %v", rep.Benchmarks)
	}
}

func TestSummarizeNoSuffixIsOneProc(t *testing.T) {
	rep, err := summarize(strings.NewReader("BenchmarkEventQueue \t 100 \t 108.4 ns/op\n"), "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.GOMAXPROCS != 1 || rep.CPU != "" {
		t.Errorf("GOMAXPROCS = %d, CPU = %q; want 1 and empty", rep.GOMAXPROCS, rep.CPU)
	}
}

func TestSummarizeRejectsMixedProcs(t *testing.T) {
	in := "BenchmarkEventQueue \t 100 \t 108.4 ns/op\nBenchmarkEventQueue-4 \t 100 \t 50.1 ns/op\n"
	if _, err := summarize(strings.NewReader(in), ""); err == nil {
		t.Fatal("summarize merged runs at GOMAXPROCS 1 and 4")
	}
}

func TestHostWarning(t *testing.T) {
	if w := hostWarning(&Report{GOMAXPROCS: 2}, &Report{GOMAXPROCS: 2}); w != "" {
		t.Errorf("matching reports warned: %q", w)
	}
	if w := hostWarning(&Report{GOMAXPROCS: 1}, &Report{GOMAXPROCS: 4}); !strings.Contains(w, "baseline 1, current 4") {
		t.Errorf("warning = %q", w)
	}
	if w := hostWarning(&Report{}, &Report{GOMAXPROCS: 2}); !strings.Contains(w, "baseline unrecorded") {
		t.Errorf("warning = %q", w)
	}
}
