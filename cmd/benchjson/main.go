// Command benchjson converts `go test -bench -benchmem` output into a
// JSON benchmark report, and compares two reports for regressions.
//
// Capture mode reads the benchmark run from stdin, echoes every line to
// stdout (so the run stays visible in the terminal), and writes the
// parsed results to -out:
//
//	go test -run '^$' -bench . -benchmem ./... | benchjson -out BENCH_2026-08-05.json
//
// Compare mode is the CI regression guard: it reads a baseline report
// and a fresh one and exits non-zero when any benchmark present in both
// slowed down (ns/op) by more than -tolerance, or grew its allocation
// count (allocs/op) beyond -alloc-tolerance:
//
//	benchjson -compare BENCH_2026-08-05.json -new fresh.json -tolerance 0.30
//
// Unlike wall-clock, allocation counts are deterministic across machines,
// so the alloc gate is much tighter (default 10% plus two allocations of
// absolute slack for runtime-version drift). A benchmark whose baseline
// recorded no allocs/op (captured without -benchmem) is exempt.
//
// Names are matched with the -GOMAXPROCS suffix stripped, so a baseline
// captured on an 8-core machine still matches a 4-core CI runner; the
// generous default tolerance absorbs machine-to-machine noise while
// still catching algorithmic regressions. Benchmarks that appear in
// only one report are listed but never fail the run.
//
// Each result records the benchmark name, iteration count, ns/op, B/op,
// allocs/op, and any custom go-bench metrics (MB/s etc.) under "extra";
// the report also stamps the capturing machine's core count ("cores").
// The Makefile's bench-json and bench-compare targets wrap both modes.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line.
type Result struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"b_per_op"`
	AllocsPerOp float64            `json:"allocs_per_op"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Report is the file written to -out.
type Report struct {
	GoOS   string `json:"goos,omitempty"`
	GoArch string `json:"goarch,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	// Cores is runtime.NumCPU() of the capturing machine: the cores a
	// -cpu N pass could actually run on.
	Cores   int      `json:"cores,omitempty"`
	Results []Result `json:"results"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(args []string, in io.Reader, out io.Writer) error {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	outPath := fs.String("out", "", "JSON report path (capture mode)")
	baseline := fs.String("compare", "", "baseline JSON report (compare mode)")
	fresh := fs.String("new", "", "fresh JSON report to compare against -compare")
	tolerance := fs.Float64("tolerance", 0.30, "allowed fractional ns/op slowdown before failing (compare mode)")
	allocTolerance := fs.Float64("alloc-tolerance", 0.10, "allowed fractional allocs/op growth before failing (compare mode)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *baseline != "" {
		if *fresh == "" {
			return fmt.Errorf("-compare requires -new")
		}
		if math.IsNaN(*tolerance) || math.IsInf(*tolerance, 0) || *tolerance < 0 {
			return fmt.Errorf("-tolerance must be a finite fraction >= 0, got %v", *tolerance)
		}
		if math.IsNaN(*allocTolerance) || math.IsInf(*allocTolerance, 0) || *allocTolerance < 0 {
			return fmt.Errorf("-alloc-tolerance must be a finite fraction >= 0, got %v", *allocTolerance)
		}
		return compare(*baseline, *fresh, *tolerance, *allocTolerance, out)
	}
	if *outPath == "" {
		return fmt.Errorf("-out is required")
	}

	rep := Report{Cores: runtime.NumCPU()}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(out, line)
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.GoOS = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.GoArch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			if rep.Pkg == "" {
				rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
			}
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		default:
			if r, ok := parseBenchLine(line); ok {
				rep.Results = append(rep.Results, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if len(rep.Results) == 0 {
		return fmt.Errorf("no benchmark results found on stdin")
	}

	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "benchjson: %d results -> %s\n", len(rep.Results), *outPath)
	return nil
}

// stripProcs removes the trailing -GOMAXPROCS suffix go test appends to
// benchmark names, so reports from machines with different core counts
// compare by benchmark identity.
func stripProcs(name string) string {
	i := strings.LastIndex(name, "-")
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func loadReport(path string) (Report, error) {
	var rep Report
	raw, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if len(rep.Results) == 0 {
		return rep, fmt.Errorf("%s: no results", path)
	}
	return rep, nil
}

// allocSlack is the absolute allocs/op headroom granted on top of the
// fractional alloc tolerance. It keeps small-count benchmarks (a baseline
// of 3 allocs/op would otherwise fail on a single incidental allocation)
// and zero-alloc baselines from flaking on runtime-version drift, while a
// reintroduced per-call buffer — tens of allocations — still trips the
// gate.
const allocSlack = 2

// compare is the regression gate: every benchmark present in both
// reports must not have slowed down by more than tolerance (fractional
// ns/op increase) nor grown its allocation count beyond allocTolerance
// plus allocSlack. Returns an error listing every offender.
func compare(basePath, freshPath string, tolerance, allocTolerance float64, out io.Writer) error {
	base, err := loadReport(basePath)
	if err != nil {
		return err
	}
	fresh, err := loadReport(freshPath)
	if err != nil {
		return err
	}
	baseBy := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseBy[stripProcs(r.Name)] = r
	}
	var regressions []string
	matched := 0
	names := make([]string, 0, len(fresh.Results))
	freshBy := make(map[string]Result, len(fresh.Results))
	for _, r := range fresh.Results {
		key := stripProcs(r.Name)
		names = append(names, key)
		freshBy[key] = r
	}
	sort.Strings(names)
	for _, key := range names {
		nr := freshBy[key]
		br, ok := baseBy[key]
		if !ok {
			fmt.Fprintf(out, "  new       %-50s %14.0f ns/op (no baseline)\n", key, nr.NsPerOp)
			continue
		}
		matched++
		delta := math.Inf(1)
		if br.NsPerOp > 0 {
			delta = nr.NsPerOp/br.NsPerOp - 1
		}
		verdict := "ok"
		if delta > tolerance {
			verdict = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f -> %.0f ns/op (%+.1f%%, tolerance %+.0f%%)",
					key, br.NsPerOp, nr.NsPerOp, 100*delta, 100*tolerance))
		}
		// Alloc gate: only meaningful when the baseline actually recorded
		// allocation counts (captured with -benchmem).
		if br.AllocsPerOp > 0 && nr.AllocsPerOp > br.AllocsPerOp*(1+allocTolerance)+allocSlack {
			verdict = "REGRESSION"
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f -> %.0f allocs/op (tolerance %+.0f%% + %d)",
					key, br.AllocsPerOp, nr.AllocsPerOp, 100*allocTolerance, allocSlack))
		}
		fmt.Fprintf(out, "  %-9s %-50s %14.0f -> %.0f ns/op (%+.1f%%), %.0f -> %.0f allocs/op\n",
			verdict, key, br.NsPerOp, nr.NsPerOp, 100*delta, br.AllocsPerOp, nr.AllocsPerOp)
	}
	for name := range baseBy {
		if _, ok := freshBy[name]; !ok {
			fmt.Fprintf(out, "  missing   %-50s (in baseline only)\n", name)
		}
	}
	if matched == 0 {
		return fmt.Errorf("no benchmarks in common between %s and %s", basePath, freshPath)
	}
	if len(regressions) > 0 {
		return fmt.Errorf("%d benchmark regression(s) beyond %.0f%% tolerance:\n  %s",
			len(regressions), 100*tolerance, strings.Join(regressions, "\n  "))
	}
	fmt.Fprintf(out, "benchjson: %d benchmarks within %.0f%% of baseline\n", matched, 100*tolerance)
	return nil
}

// parseBenchLine parses one "BenchmarkName-8  123  456 ns/op  0 B/op ..."
// line. It returns ok=false for non-benchmark lines (PASS, ok, headers).
func parseBenchLine(line string) (Result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: fields[0], Iterations: iters}
	// The remainder is value/unit pairs.
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil || math.IsNaN(val) || math.IsInf(val, 0) {
			// A non-finite measurement would round-trip through the
			// JSON snapshot as an unmarshalable token; drop the line.
			return Result{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			r.NsPerOp = val
		case "B/op":
			r.BytesPerOp = val
		case "allocs/op":
			r.AllocsPerOp = val
		default:
			if r.Extra == nil {
				r.Extra = map[string]float64{}
			}
			r.Extra[unit] = val
		}
		seen = true
	}
	return r, seen
}
