package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"sharqfec/internal/fec"
)

func TestLayerOf(t *testing.T) {
	cases := map[string]string{
		"sharqfec/internal/fec.addMulSlice":                         "fec",
		"sharqfec/internal/eventq.(*Queue).siftDown":                "eventq",
		"sharqfec/internal/eventq.(*ShardGroup).runEpoch.func1":     "eventq",
		"sharqfec/internal/telemetry/census.(*Engine).ObserveHop":   "census",
		"sharqfec/internal/telemetry.(*Bus).Emit":                   "telemetry",
		"sharqfec/internal/telemetry/spans.(*Assembler).Sink.func1": "telemetry",
		"sharqfec/internal/telemetry/health.(*Engine).tick":         "telemetry",
		"sharqfec/internal/scoping.(*Hierarchy).Contains":           "scoping",
		"sharqfec/internal/core.(*Agent).Receive":                   "core",
		"sharqfec/internal/faults.(*Engine).Start":                  "faults",
		"sharqfec/internal/netsim.sliceOf[go.shape.int]":            "netsim",
		"sharqfec/internal/simrand.(*Rand).Float64":                 "",
		"sharqfec/internal/stats.(*Collector).Tap.func1":            "",
		"sharqfec.RunData":        "",
		"sharqfec/perfbench.main": "",
		"runtime.mallocgc":        "",
	}
	for fn, want := range cases {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestAttributeInnermostLayerFrameWins(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"runtime map work goes to its caller's layer", []string{
			"runtime.mapaccess2", "sharqfec/internal/session.(*Manager).Receive",
			"sharqfec/internal/netsim.(*Network).deliver", "sharqfec/internal/eventq.(*Queue).Step",
		}, "session"},
		{"helper packages are skipped", []string{
			"runtime.mallocgc", "sharqfec/internal/simrand.(*Rand).Float64",
			"sharqfec/internal/netsim.(*Network).transmit", "sharqfec/internal/eventq.(*Queue).Step",
		}, "netsim"},
		{"facade closures called from a layer go to that layer", []string{
			"bytes.Equal", "sharqfec.runSHARQFEC.func2", "sharqfec/internal/core.(*Agent).complete",
		}, "core"},
		{"census is its own layer inside telemetry", []string{
			"sharqfec/internal/telemetry/census.(*Engine).Sink.func1", "sharqfec/internal/telemetry.(*Bus).Emit",
			"sharqfec/internal/core.(*Agent).sendNACK",
		}, "census"},
		{"GC assist on a layer goroutine stays with the layer", []string{
			"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc",
			"sharqfec/internal/fec.(*Codec).Decode",
		}, "fec"},
		{"background GC", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{"background sweep", []string{"runtime.sweepone", "runtime.bgsweep"}, "gc"},
		{"facade only", []string{"runtime.memmove", "sharqfec.RunChaos"}, "other"},
		{"empty stack", nil, "other"},
	}
	for _, c := range cases {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("%s: attribute = %q, want %q", c.name, got, c.want)
		}
	}
}

// TestLayerSamplesFromRealProfile profiles FEC encoding and checks that
// the decoded profile charges samples to the fec layer, and more to it
// than to any other layer. (Under the race detector many samples land in
// its runtime with no Go frame and count as "other".)
func TestLayerSamplesFromRealProfile(t *testing.T) {
	codec, err := fec.NewCodec(16)
	if err != nil {
		t.Fatal(err)
	}
	data := make([][]byte, 16)
	for i := range data {
		data[i] = bytes.Repeat([]byte{byte(i + 1)}, 1000)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 400*time.Millisecond; {
		if _, err := codec.Repairs(data, 8); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()

	got, err := layerSamples(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got["fec"] == 0 {
		t.Fatalf("no samples charged to fec: %v", got)
	}
	for l, n := range got {
		if l != "fec" && l != "other" && n >= got["fec"] {
			t.Errorf("layer %s has %d samples, fec only %d", l, n, got["fec"])
		}
	}
}

func TestDecodeProfileRejectsTruncatedInput(t *testing.T) {
	// Field 6 (string table), length 10, but only 3 bytes follow.
	if _, err := decodeProfile([]byte{6<<3 | 2, 10, 'a', 'b', 'c'}); err == nil {
		t.Fatal("truncated profile decoded without error")
	}
}
