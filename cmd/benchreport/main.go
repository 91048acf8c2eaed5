// Command benchreport turns `go test -bench` output into a JSON summary
// and gates benchmark regressions against a committed baseline.
//
// Summarize (reads the bench output from stdin):
//
//	go test -run '^$' -bench FEC -benchmem -count 5 . | benchreport -out bench.json
//
// Repeated runs of the same benchmark (from -count) collapse to the
// median, which is what benchstat reports as the center and is robust
// to one noisy run on shared CI hardware.
//
// Compare (exits non-zero when a gated benchmark regresses):
//
//	benchreport -compare -threshold 10 -gate 'FECEncode|FECDecode|EventQueue' baseline.json current.json
//
// ns/op regressions beyond -threshold percent fail the gate; allocs/op
// must never regress at all (an alloc on a zero-alloc path is a bug, not
// noise). Benchmarks present in only one file are reported but not
// gated, so adding or retiring benchmarks never breaks the gate.
//
// A summary records the host it was measured on: the CPU model from
// the `cpu:` header line and GOMAXPROCS from the `-N` suffix `go test`
// appends to benchmark names (no suffix means 1). Compare warns when
// the two reports ran at different GOMAXPROCS, since wall-clock
// numbers from different core counts do not compare.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is the summarized measurement for one benchmark.
type Result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BPerOp      float64 `json:"b_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	Runs        int     `json:"runs"`
}

// Report is the file format (BENCH_5.json and the CI artifact).
type Report struct {
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	CPU        string            `json:"cpu,omitempty"`
	GOMAXPROCS int               `json:"gomaxprocs,omitempty"`
	Note       string            `json:"note,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
	// Speedups records, for every benchmark family with shards=K
	// sub-benchmarks, the wall-clock ratio of the shards=1 width to
	// each wider run (>1 means the parallel engine won). Derived from
	// the medians above; meaningful only on a runner with ≥K cores.
	Speedups map[string]float64 `json:"speedups,omitempty"`
}

func main() {
	out := flag.String("out", "", "write the JSON summary to this file (default stdout)")
	note := flag.String("note", "", "free-form note recorded in the summary")
	compare := flag.Bool("compare", false, "compare two summary files: benchreport -compare baseline.json current.json")
	threshold := flag.Float64("threshold", 10, "percent ns/op regression allowed before the gate fails")
	gate := flag.String("gate", "FECEncode|FECDecode|EventQueue", "regexp of benchmark names the regression gate enforces")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("compare mode needs exactly two files: baseline.json current.json")
		}
		if err := compareReports(flag.Arg(0), flag.Arg(1), *threshold, *gate); err != nil {
			fatal(err.Error())
		}
		return
	}

	rep, err := summarize(os.Stdin, *note)
	if err != nil {
		fatal(err.Error())
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err.Error())
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err.Error())
	}
}

func fatal(msg string) {
	fmt.Fprintln(os.Stderr, "benchreport:", msg)
	os.Exit(1)
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkFECEncode-8   36489   29361 ns/op   544.93 MB/s   4224 B/op   2 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-(\d+))?\s+(\d+)\s+([\d.]+) ns/op(.*)$`)

func summarize(r io.Reader, note string) (*Report, error) {
	samples := map[string][]Result{}
	cpu, procs := "", 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		if model, ok := strings.CutPrefix(sc.Text(), "cpu: "); ok {
			cpu = strings.TrimSpace(model)
			continue
		}
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		p := 1
		if m[2] != "" {
			p, _ = strconv.Atoi(m[2])
		}
		if procs != 0 && p != procs {
			return nil, fmt.Errorf("%s ran at GOMAXPROCS %d, earlier lines at %d; summarize one -cpu value at a time", m[1], p, procs)
		}
		procs = p
		res := Result{Runs: 1}
		res.NsPerOp, _ = strconv.ParseFloat(m[4], 64)
		for _, metric := range strings.Split(m[5], "\t") {
			fields := strings.Fields(metric)
			if len(fields) != 2 {
				continue
			}
			v, err := strconv.ParseFloat(fields[0], 64)
			if err != nil {
				continue
			}
			switch fields[1] {
			case "B/op":
				res.BPerOp = v
			case "allocs/op":
				res.AllocsPerOp = v
			}
		}
		samples[m[1]] = append(samples[m[1]], res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no benchmark lines found on stdin")
	}
	rep := &Report{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPU: cpu, GOMAXPROCS: procs, Note: note,
		Benchmarks: make(map[string]Result, len(samples)),
	}
	for name, runs := range samples {
		rep.Benchmarks[name] = Result{
			NsPerOp:     median(runs, func(r Result) float64 { return r.NsPerOp }),
			BPerOp:      median(runs, func(r Result) float64 { return r.BPerOp }),
			AllocsPerOp: median(runs, func(r Result) float64 { return r.AllocsPerOp }),
			Runs:        len(runs),
		}
	}
	rep.Speedups = speedups(rep.Benchmarks)
	return rep, nil
}

// shardSuffix splits "Family/shards=K" benchmark names.
var shardSuffix = regexp.MustCompile(`^(.+)/shards=(\d+)$`)

// speedups derives shards=1 ÷ shards=K wall-clock ratios for every
// benchmark family that ran shard-width sub-benchmarks.
func speedups(benchmarks map[string]Result) map[string]float64 {
	out := map[string]float64{}
	for name, res := range benchmarks {
		m := shardSuffix.FindStringSubmatch(name)
		if m == nil || m[2] == "1" || res.NsPerOp <= 0 {
			continue
		}
		base, ok := benchmarks[m[1]+"/shards=1"]
		if !ok || base.NsPerOp <= 0 {
			continue
		}
		out[name] = base.NsPerOp / res.NsPerOp
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

func median(runs []Result, get func(Result) float64) float64 {
	vs := make([]float64, len(runs))
	for i, r := range runs {
		vs[i] = get(r)
	}
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

func loadReport(path string) (*Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(buf, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

func compareReports(basePath, curPath string, threshold float64, gatePat string) error {
	base, err := loadReport(basePath)
	if err != nil {
		return err
	}
	cur, err := loadReport(curPath)
	if err != nil {
		return err
	}
	gateRe, err := regexp.Compile(gatePat)
	if err != nil {
		return fmt.Errorf("bad -gate pattern: %w", err)
	}
	if w := hostWarning(base, cur); w != "" {
		fmt.Println(w)
	}

	names := make([]string, 0, len(cur.Benchmarks))
	for name := range cur.Benchmarks {
		names = append(names, name)
	}
	sort.Strings(names)

	var failures []string
	fmt.Printf("%-40s %14s %14s %8s\n", "benchmark", "base ns/op", "cur ns/op", "delta")
	for _, name := range names {
		c := cur.Benchmarks[name]
		b, ok := base.Benchmarks[name]
		if !ok {
			fmt.Printf("%-40s %14s %14.1f %8s\n", name, "-", c.NsPerOp, "new")
			continue
		}
		delta := 100 * (c.NsPerOp - b.NsPerOp) / b.NsPerOp
		status := ""
		if gateRe.MatchString(name) {
			if delta > threshold {
				status = "  FAIL"
				failures = append(failures, fmt.Sprintf("%s: ns/op regressed %.1f%% (%.1f -> %.1f, limit %.0f%%)",
					name, delta, b.NsPerOp, c.NsPerOp, threshold))
			}
			if c.AllocsPerOp > b.AllocsPerOp {
				status = "  FAIL"
				failures = append(failures, fmt.Sprintf("%s: allocs/op regressed (%.0f -> %.0f)",
					name, b.AllocsPerOp, c.AllocsPerOp))
			}
		}
		fmt.Printf("%-40s %14.1f %14.1f %+7.1f%%%s\n", name, b.NsPerOp, c.NsPerOp, delta, status)
	}
	if len(failures) > 0 {
		return fmt.Errorf("regression gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Println("regression gate passed")
	return nil
}

// hostWarning describes a GOMAXPROCS mismatch between two reports, or
// returns "" when they match. A report written before the field
// existed reads as "unrecorded".
func hostWarning(base, cur *Report) string {
	if base.GOMAXPROCS == cur.GOMAXPROCS {
		return ""
	}
	procs := func(r *Report) string {
		if r.GOMAXPROCS == 0 {
			return "unrecorded"
		}
		return strconv.Itoa(r.GOMAXPROCS)
	}
	return fmt.Sprintf("warning: GOMAXPROCS differs (baseline %s, current %s); wall-clock deltas compare different core counts",
		procs(base), procs(cur))
}
