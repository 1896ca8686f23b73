package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkPipelineLocate2D-8   \t      12\t  95123456 ns/op\t 8123456 B/op\t   40321 allocs/op")
	if !ok {
		t.Fatal("expected benchmark line to parse")
	}
	if r.Name != "BenchmarkPipelineLocate2D-8" || r.Iterations != 12 {
		t.Fatalf("name/iters = %q/%d", r.Name, r.Iterations)
	}
	if r.NsPerOp != 95123456 || r.BytesPerOp != 8123456 || r.AllocsPerOp != 40321 {
		t.Fatalf("metrics = %v %v %v", r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
	}
}

func TestParseBenchLineCustomMetric(t *testing.T) {
	r, ok := parseBenchLine("BenchmarkCorrelate-4 100 250000 ns/op 812.5 MB/s 64 B/op 2 allocs/op")
	if !ok {
		t.Fatal("expected line to parse")
	}
	if r.Extra["MB/s"] != 812.5 {
		t.Fatalf("extra = %v", r.Extra)
	}
}

// TestCaptureStampsCores: a captured report records the machine's core
// count, so -cpu passes can be read against the cores that existed.
func TestCaptureStampsCores(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	in := strings.NewReader("cpu: Test CPU\nBenchmarkDetect-2 \t 100\t 250000 ns/op\n")
	if err := run([]string{"-out", path}, in, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Cores != runtime.NumCPU() || rep.Cores < 1 {
		t.Fatalf("cores = %d, want runtime.NumCPU() = %d", rep.Cores, runtime.NumCPU())
	}
	if !strings.Contains(string(raw), `"cores":`) {
		t.Fatalf("report has no cores field:\n%s", raw)
	}
}

func writeReport(t *testing.T, path string, results []Result) {
	t.Helper()
	raw, err := json.Marshal(Report{Results: results})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareDetectsRegression(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	fresh := filepath.Join(dir, "fresh.json")
	writeReport(t, base, []Result{
		{Name: "BenchmarkPipelineLocate2D-8", NsPerOp: 100_000_000, Iterations: 10},
		{Name: "BenchmarkDetect-8", NsPerOp: 1_000_000, Iterations: 100},
	})
	// Seeded >30% slowdown on one hot path; the other within tolerance
	// (different -procs suffix must still match).
	writeReport(t, fresh, []Result{
		{Name: "BenchmarkPipelineLocate2D-4", NsPerOp: 140_000_000, Iterations: 10},
		{Name: "BenchmarkDetect-4", NsPerOp: 1_200_000, Iterations: 100},
	})
	var out bytes.Buffer
	err := run([]string{"-compare", base, "-new", fresh, "-tolerance", "0.30"}, strings.NewReader(""), &out)
	if err == nil {
		t.Fatalf("seeded 40%% regression must fail the compare; output:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkPipelineLocate2D") {
		t.Errorf("error must name the regressed benchmark: %v", err)
	}
	if strings.Contains(err.Error(), "BenchmarkDetect") {
		t.Errorf("in-tolerance benchmark must not be listed as a regression: %v", err)
	}
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	fresh := filepath.Join(dir, "fresh.json")
	writeReport(t, base, []Result{
		{Name: "BenchmarkDetect-8", NsPerOp: 1_000_000, Iterations: 100},
		{Name: "BenchmarkOnlyInBaseline-8", NsPerOp: 5, Iterations: 1},
	})
	writeReport(t, fresh, []Result{
		{Name: "BenchmarkDetect-8", NsPerOp: 1_290_000, Iterations: 100},
		{Name: "BenchmarkOnlyInFresh-8", NsPerOp: 7, Iterations: 1},
	})
	var out bytes.Buffer
	if err := run([]string{"-compare", base, "-new", fresh}, strings.NewReader(""), &out); err != nil {
		t.Fatalf("29%% slowdown within default 30%% tolerance must pass: %v\n%s", err, out.String())
	}
	// Unmatched benchmarks are reported, never fatal.
	if !strings.Contains(out.String(), "BenchmarkOnlyInFresh") || !strings.Contains(out.String(), "BenchmarkOnlyInBaseline") {
		t.Errorf("unmatched benchmarks must be listed:\n%s", out.String())
	}
}

func TestCompareErrors(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	writeReport(t, base, []Result{{Name: "BenchmarkA-8", NsPerOp: 1, Iterations: 1}})
	other := filepath.Join(dir, "other.json")
	writeReport(t, other, []Result{{Name: "BenchmarkB-8", NsPerOp: 1, Iterations: 1}})

	if err := run([]string{"-compare", base}, strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Error("-compare without -new must error")
	}
	if err := run([]string{"-compare", base, "-new", filepath.Join(dir, "missing.json")},
		strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Error("missing fresh report must error")
	}
	if err := run([]string{"-compare", base, "-new", other}, strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Error("zero benchmarks in common must error")
	}
	if err := run([]string{"-compare", base, "-new", base, "-tolerance", "NaN"},
		strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Error("NaN tolerance must be rejected")
	}
	if err := run([]string{"-compare", base, "-new", base, "-alloc-tolerance", "-1"},
		strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Error("negative alloc tolerance must be rejected")
	}
}

func TestCompareDetectsAllocRegression(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	fresh := filepath.Join(dir, "fresh.json")
	writeReport(t, base, []Result{
		// A reintroduced per-call buffer: 75 -> 115 allocs/op while
		// wall-clock stays flat, the exact failure ns/op gating misses.
		{Name: "BenchmarkPipelineLocate2D-8", NsPerOp: 100_000_000, AllocsPerOp: 75, Iterations: 10},
		// Small-count benchmark drifting by one alloc: inside the
		// absolute slack, must pass.
		{Name: "BenchmarkDetect-8", NsPerOp: 1_000_000, AllocsPerOp: 3, Iterations: 100},
		// Baseline captured without -benchmem: exempt from the gate.
		{Name: "BenchmarkNoMem-8", NsPerOp: 500, AllocsPerOp: 0, Iterations: 100},
	})
	writeReport(t, fresh, []Result{
		{Name: "BenchmarkPipelineLocate2D-8", NsPerOp: 101_000_000, AllocsPerOp: 115, Iterations: 10},
		{Name: "BenchmarkDetect-8", NsPerOp: 1_000_000, AllocsPerOp: 4, Iterations: 100},
		{Name: "BenchmarkNoMem-8", NsPerOp: 500, AllocsPerOp: 40, Iterations: 100},
	})
	var out bytes.Buffer
	err := run([]string{"-compare", base, "-new", fresh}, strings.NewReader(""), &out)
	if err == nil {
		t.Fatalf("seeded alloc regression must fail the compare; output:\n%s", out.String())
	}
	if !strings.Contains(err.Error(), "BenchmarkPipelineLocate2D") || !strings.Contains(err.Error(), "allocs/op") {
		t.Errorf("error must name the alloc-regressed benchmark: %v", err)
	}
	if strings.Contains(err.Error(), "BenchmarkDetect") {
		t.Errorf("one-alloc drift inside slack must not be listed: %v", err)
	}
	if strings.Contains(err.Error(), "BenchmarkNoMem") {
		t.Errorf("zero-alloc baseline (no -benchmem) must be exempt: %v", err)
	}
}

func TestCompareAllocToleranceFlag(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	fresh := filepath.Join(dir, "fresh.json")
	writeReport(t, base, []Result{
		{Name: "BenchmarkPipelineLocate2D-8", NsPerOp: 100, AllocsPerOp: 100, Iterations: 10},
	})
	writeReport(t, fresh, []Result{
		{Name: "BenchmarkPipelineLocate2D-8", NsPerOp: 100, AllocsPerOp: 140, Iterations: 10},
	})
	if err := run([]string{"-compare", base, "-new", fresh}, strings.NewReader(""), &bytes.Buffer{}); err == nil {
		t.Error("40% alloc growth must fail the default 10% gate")
	}
	if err := run([]string{"-compare", base, "-new", fresh, "-alloc-tolerance", "0.50"},
		strings.NewReader(""), &bytes.Buffer{}); err != nil {
		t.Errorf("40%% growth must pass a 50%% alloc tolerance: %v", err)
	}
}

func TestStripProcs(t *testing.T) {
	cases := map[string]string{
		"BenchmarkDetect-8":      "BenchmarkDetect",
		"BenchmarkDetect-16":     "BenchmarkDetect",
		"BenchmarkDetect":        "BenchmarkDetect",
		"BenchmarkFFT/n=1024-8":  "BenchmarkFFT/n=1024",
		"BenchmarkOdd-name":      "BenchmarkOdd-name",
		"BenchmarkTrailingDash-": "BenchmarkTrailingDash-",
	}
	for in, want := range cases {
		if got := stripProcs(in); got != want {
			t.Errorf("stripProcs(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestParseBenchLineRejectsNoise(t *testing.T) {
	for _, line := range []string{
		"PASS",
		"ok  \thyperear\t12.345s",
		"goos: linux",
		"BenchmarkBroken notanumber 1 ns/op",
		"",
	} {
		if _, ok := parseBenchLine(line); ok {
			t.Errorf("line %q should not parse as a benchmark", line)
		}
	}
}
