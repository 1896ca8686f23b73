// Package hyperear's benchmark harness: one benchmark per reproduced
// figure (run the tables with `go test -bench Fig -benchtime 1x`) plus
// ablation and micro benchmarks. Each figure benchmark executes the same
// experiment.RunFigNN the CLI uses, at a reduced trial count, and reports
// the headline error statistics as custom metrics (mean-cm, p90-cm of the
// figure's most adverse condition) so regressions in reproduction quality
// are visible in benchmark output, not just speed.
package hyperear

import (
	"context"
	"strings"
	"testing"

	"hyperear/internal/core"
	"hyperear/internal/experiment"
	"hyperear/internal/imu"
	"hyperear/internal/obs"
	"hyperear/internal/room"
)

// benchOpt keeps figure benchmarks bounded; raise trials via the CLI for
// paper-scale runs.
func benchOpt() experiment.Options {
	return experiment.Options{Trials: 3, Seed: 9}
}

// reportFigure re-renders a figure's headline condition as benchmark
// metrics.
func reportFigure(b *testing.B, fig experiment.Figure) {
	b.Helper()
	for _, c := range fig.Conditions {
		if len(c.Errors) == 0 {
			continue
		}
		s := c.Summary()
		label := strings.NewReplacer(" ", "_", "\t", "_").Replace(c.Label)
		b.ReportMetric(s.Mean*100, "mean-cm/"+label)
	}
	if testing.Verbose() {
		b.Log("\n" + fig.String())
	}
}

func BenchmarkFig03NaiveAmbiguity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportFigure(b, experiment.RunFig3(benchOpt()))
	}
}

func BenchmarkFig04HyperbolaDensity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := experiment.RunFig4(benchOpt())
		if len(fig.Conditions) != 2 {
			b.Fatal("fig4 incomplete")
		}
	}
}

func BenchmarkFig07DirectionSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := experiment.RunFig7(benchOpt())
		if len(fig.Conditions) < 2 {
			b.Fatalf("fig7 incomplete: %v", fig.Notes)
		}
	}
}

func BenchmarkFig08Segmentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := experiment.RunFig8(benchOpt())
		if len(fig.Conditions) != 1 {
			b.Fatal("fig8 incomplete")
		}
	}
}

func BenchmarkFig09DriftCorrection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := experiment.RunFig9(benchOpt())
		if len(fig.Conditions) != 2 {
			b.Fatal("fig9 incomplete")
		}
	}
}

func BenchmarkFig14SlideLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportFigure(b, experiment.RunFig14(benchOpt()))
	}
}

func BenchmarkFig15DistanceS4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportFigure(b, experiment.RunFig15(benchOpt()))
	}
}

func BenchmarkFig16DistanceNote3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportFigure(b, experiment.RunFig16(benchOpt()))
	}
}

func BenchmarkFig17ThreeDS4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportFigure(b, experiment.RunFig17(benchOpt()))
	}
}

func BenchmarkFig18ThreeDNote3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportFigure(b, experiment.RunFig18(benchOpt()))
	}
}

func BenchmarkFig19NoiseRegimes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportFigure(b, experiment.RunFig19(benchOpt()))
	}
}

func BenchmarkAblationSFO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportFigure(b, experiment.RunAblationSFO(benchOpt()))
	}
}

func BenchmarkAblationDrift(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportFigure(b, experiment.RunAblationDrift(benchOpt()))
	}
}

func BenchmarkAblationDirection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportFigure(b, experiment.RunAblationDirection(benchOpt()))
	}
}

func BenchmarkAblationAggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportFigure(b, experiment.RunAblationAggregation(benchOpt()))
	}
}

func BenchmarkDirectionComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fig := experiment.RunDirectionComparison(benchOpt())
		if len(fig.Conditions) != 2 {
			b.Fatal("comparison incomplete")
		}
	}
}

func BenchmarkFull3DComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportFigure(b, experiment.RunFull3DComparison(benchOpt()))
	}
}

// benchScenario is the standard 5-slide session the pipeline benchmarks
// share.
func benchScenario() Scenario {
	return Scenario{
		Env:            MeetingRoom(),
		Phone:          GalaxyS4(),
		Source:         DefaultBeacon(),
		SpeakerPos:     Vec3{X: 9, Y: 6, Z: 1.2},
		SpeakerSkewPPM: 20,
		PhoneStart:     Vec3{X: 4, Y: 6, Z: 1.2},
		Protocol:       DefaultProtocol(),
		IMU:            imu.DefaultConfig(),
		Noise:          room.WhiteNoise{},
		SNRdB:          15,
		Seed:           12,
	}
}

// BenchmarkPipelineLocate2D measures the end-to-end pipeline cost on one
// pre-rendered 5-slide session (the per-localization latency a phone
// implementation would care about): the two channels detect
// concurrently, everything else runs serially.
func BenchmarkPipelineLocate2D(b *testing.B) {
	sc := benchScenario()
	session, err := Simulate(sc)
	if err != nil {
		b.Fatal(err)
	}
	loc, err := NewLocalizerConfig(core.DefaultConfig(sc.Source, sc.Phone.SampleRate, sc.Phone.MicSeparation))
	if err != nil {
		b.Fatal(err)
	}
	// Untimed warm-up: pay the FFT plan caches and scratch-pool growth
	// outside the measurement so allocs/op reflects steady state and the
	// bench-compare alloc gate isn't at the mercy of b.N.
	if _, err := loc.Locate2D(session); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := loc.Locate2D(session); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkASP times the acoustic preprocessing stage alone — matched
// filter, envelope, NMS and pairing on both channels, which detect
// concurrently, plus the period fit — on the same 5-slide session: the
// stage row of BenchmarkPipelineLocate2D's per-locate cost.
func BenchmarkASP(b *testing.B) {
	sc := benchScenario()
	session, err := Simulate(sc)
	if err != nil {
		b.Fatal(err)
	}
	cfg := core.DefaultConfig(sc.Source, sc.Phone.SampleRate, sc.Phone.MicSeparation).ASP
	asp, err := core.NewASP(sc.Source, sc.Phone.SampleRate, cfg)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	// Untimed warm-up (plan caches, template spectrum, scratch pool).
	if _, err := asp.ProcessContext(ctx, session.Recording); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := asp.ProcessContext(ctx, session.Recording); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPipelineLocate2DObserved runs the same session with a live
// obs hook (in-memory sink + registry). Compare against
// BenchmarkPipelineLocate2D (nil hook) for the enabled-path overhead;
// the disabled-path overhead itself is pinned at 0 B/op by
// internal/obs.BenchmarkDisabledSpan. The benchmark fails if the
// instrumented pipeline stops emitting spans or slide tallies, so a
// bench-smoke run catches observability plumbing rot.
func BenchmarkPipelineLocate2DObserved(b *testing.B) {
	sc := benchScenario()
	session, err := Simulate(sc)
	if err != nil {
		b.Fatal(err)
	}
	sink := &obs.MemSink{}
	reg := obs.NewRegistry()
	cfg := core.DefaultConfig(sc.Source, sc.Phone.SampleRate, sc.Phone.MicSeparation)
	cfg.Obs = obs.New(sink, reg)
	loc, err := NewLocalizerConfig(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Untimed warm-up so allocs/op reflects steady state (see
	// BenchmarkPipelineLocate2D). Its movements still land in the registry
	// tallies, so seed the counter with them.
	var movements int
	warm, err := loc.Locate2D(session)
	if err != nil {
		b.Fatal(err)
	}
	movements += warm.Movements
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fix, err := loc.Locate2D(session)
		if err != nil {
			b.Fatal(err)
		}
		movements += fix.Movements
	}
	b.StopTimer()
	if len(sink.Events()) == 0 {
		b.Fatal("instrumented pipeline emitted no spans")
	}
	snap := reg.Snapshot()
	accepted := snap.Counters[core.MSlideAccepted]
	rejected := snap.SumPrefix(core.MSlideRejectedPrefix)
	if accepted+rejected == 0 {
		b.Fatal("instrumented pipeline recorded no slide tallies")
	}
	if got, want := accepted+rejected, uint64(movements); got != want {
		b.Fatalf("slide tallies = %d, want %d movements", got, want)
	}
}

// BenchmarkSimulateSession measures the simulator's rendering cost for a
// standard session (audio synthesis dominates).
func BenchmarkSimulateSession(b *testing.B) {
	sc := Scenario{
		Env:        MeetingRoom(),
		Phone:      GalaxyS4(),
		Source:     DefaultBeacon(),
		SpeakerPos: Vec3{X: 9, Y: 6, Z: 1.2},
		PhoneStart: Vec3{X: 4, Y: 6, Z: 1.2},
		Protocol:   DefaultProtocol(),
		IMU:        imu.DefaultConfig(),
		Seed:       12,
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(sc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBaselineComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportFigure(b, experiment.RunBaselineComparison(benchOpt()))
	}
}
