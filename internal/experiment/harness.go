// Package experiment regenerates every figure of the paper's evaluation
// (and the analytic figures of Sections II-V) on the simulated substrate,
// printing tables and text CDFs comparable to the published plots. Each
// RunFigNN function is indexed in DESIGN.md and wired to a benchmark in
// bench_test.go; cmd/hyperearsim runs them all.
package experiment

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"

	"hyperear/internal/obs"
	"hyperear/internal/stats"
)

// Counter names the per-session loop emits through Options.Obs.
const (
	MTrialsOK     = "experiment.trials.ok"
	MTrialsFailed = "experiment.trials.failed"
)

// Options controls experiment size and reproducibility.
type Options struct {
	// Trials is the number of sessions per condition (the paper uses
	// 5 speaker positions × 5 test positions × 10 volunteers; the default
	// here keeps CLI runs in minutes).
	Trials int
	// Seed derives all randomness.
	Seed int64
	// Parallelism bounds concurrent sessions (0 = GOMAXPROCS).
	Parallelism int
	// Obs is the observability hook for the per-session loop: every
	// trial runs under an "experiment.trial" span and tallies into the
	// experiment.trials.ok/failed counters. Nil disables at zero cost.
	Obs *obs.Obs
}

// workers is the number of trials run at once: Parallelism when
// positive, otherwise GOMAXPROCS.
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Point is one (x, y) sample of a reproduced curve.
type Point struct {
	X, Y float64
}

// Condition is one line/curve of a figure: either an error sample (CDF
// figures) or an (x, y) series (analytic figures).
type Condition struct {
	// Label names the condition ("7m", "Sliding 50-60cm", …).
	Label string
	// Errors holds per-trial localization errors in meters (CDF figures).
	Errors []float64
	// Failed counts trials that produced no estimate.
	Failed int
	// Series holds curve samples (analytic figures).
	Series []Point
	// Paper quotes the paper's reported numbers for the condition, for
	// side-by-side display.
	Paper string
}

// Summary summarizes the condition's error sample.
func (c Condition) Summary() stats.Summary { return stats.Summarize(c.Errors) }

// Figure is one reproduced figure.
type Figure struct {
	// ID is the figure tag ("fig14").
	ID string
	// Title describes what is reproduced.
	Title string
	// Conditions are the figure's curves.
	Conditions []Condition
	// Notes carries free-form commentary (substitutions, caveats).
	Notes []string
}

// String renders the figure as a text report.
func (f Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", f.ID, f.Title)
	for _, c := range f.Conditions {
		if len(c.Errors) > 0 {
			s := c.Summary()
			fmt.Fprintf(&b, "%-24s %s", c.Label, s)
			if c.Failed > 0 {
				fmt.Fprintf(&b, " failed=%d", c.Failed)
			}
			if c.Paper != "" {
				fmt.Fprintf(&b, "   [paper: %s]", c.Paper)
			}
			b.WriteByte('\n')
		}
		if len(c.Series) > 0 {
			fmt.Fprintf(&b, "%-24s", c.Label)
			if c.Paper != "" {
				fmt.Fprintf(&b, " [paper: %s]", c.Paper)
			}
			b.WriteByte('\n')
			for _, p := range c.Series {
				fmt.Fprintf(&b, "    %10.4f  %12.6f\n", p.X, p.Y)
			}
		}
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// CDFReport renders text CDF plots for every error condition of a figure.
func (f Figure) CDFReport(xMax float64) string {
	var b strings.Builder
	for _, c := range f.Conditions {
		if len(c.Errors) == 0 {
			continue
		}
		fmt.Fprintf(&b, "--- %s / %s (CDF of error, 0..%.2f m) ---\n", f.ID, c.Label, xMax)
		b.WriteString(stats.NewCDF(c.Errors).AsciiPlot(xMax, 56, 10))
	}
	return b.String()
}

// trialResult carries one parallel trial's outcome.
type trialResult struct {
	err    float64
	failed bool
}

// runTrials executes fn for trial indices 0..opt.Trials-1 in parallel,
// giving each a dedicated deterministic RNG, and collects error samples.
// Each trial runs under an "experiment.trial" span on opt.Obs.
func runTrials(opt Options, seed int64, fn func(trial int, rng *rand.Rand) (float64, error)) ([]float64, int) {
	n, workers := opt.Trials, opt.workers()
	if workers < 1 {
		workers = 1
	}
	results := make([]trialResult, n)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rng := rand.New(rand.NewSource(seed + int64(i)*7919))
			sp := opt.Obs.Span("experiment.trial")
			sp.AttrInt("trial", i)
			e, err := fn(i, rng)
			if err != nil {
				sp.AttrStr("error", err.Error())
				sp.End()
				opt.Obs.Inc(MTrialsFailed)
				results[i] = trialResult{failed: true}
				return
			}
			sp.Attr("error_m", e)
			sp.End()
			opt.Obs.Inc(MTrialsOK)
			results[i] = trialResult{err: e}
		}(i)
	}
	wg.Wait()
	var errs []float64
	failed := 0
	for _, r := range results {
		if r.failed {
			failed++
		} else {
			errs = append(errs, r.err)
		}
	}
	return errs, failed
}
