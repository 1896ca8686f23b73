package hyperear

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"sync"
	"testing"

	"hyperear/internal/core"
	"hyperear/internal/obs"
)

// runTraced simulates the seeded scenario and runs Locate2D with a JSONL
// sink and registry attached, returning the fix, the decoded trace, and
// the metrics snapshot.
func runTraced(t *testing.T, seed int64) (*Fix2D, []obs.Event, obs.Snapshot) {
	t.Helper()
	sc := testScenario(seed)
	s, err := Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewJSONLSink(&buf)
	reg := obs.NewRegistry()
	cfg := DefaultConfigFor(sc.Phone, sc.Source)
	cfg.Obs = obs.New(sink, reg)
	loc, err := NewLocalizerConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fix, err := loc.Locate2D(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := sink.Err(); err != nil {
		t.Fatalf("trace write: %v", err)
	}
	var events []obs.Event
	scan := bufio.NewScanner(&buf)
	for scan.Scan() {
		var e obs.Event
		if err := json.Unmarshal(scan.Bytes(), &e); err != nil {
			t.Fatalf("trace line %d is not valid JSON: %v", len(events), err)
		}
		events = append(events, e)
	}
	return fix, events, reg.Snapshot()
}

// TestTraceGoldenLocate2D pins the trace a seeded 2D run emits: one span
// per stage in pipeline order, all durations sane, and the metrics
// snapshot's slide tallies exactly accounting for every movement.
func TestTraceGoldenLocate2D(t *testing.T) {
	fix, events, snap := runTraced(t, 7)

	stages := make([]string, len(events))
	for i, e := range events {
		stages[i] = e.Stage
		if e.DurNS < 0 {
			t.Errorf("span %q has negative duration %d", e.Stage, e.DurNS)
		}
		if e.StartNS <= 0 {
			t.Errorf("span %q has start %d", e.Stage, e.StartNS)
		}
	}
	// Spans end innermost-first, so the stage order is fixed for a 2D run.
	want := []string{"asp", "msp", "pde", "ttl", "locate2d"}
	if !reflect.DeepEqual(stages, want) {
		t.Fatalf("trace stages = %v, want %v", stages, want)
	}

	// The acceptance invariant: accepted + rejected.* counters account
	// for every segmented movement exactly once.
	accepted := snap.Counters[core.MSlideAccepted]
	rejected := snap.SumPrefix(core.MSlideRejectedPrefix)
	if got, want := accepted+rejected, uint64(fix.Movements); got != want {
		t.Fatalf("accepted(%d)+rejected(%d) = %d, want %d movements\ncounters: %v",
			accepted, rejected, got, want, snap.Counters)
	}
	if accepted != uint64(fix.Slides) {
		t.Errorf("accepted = %d, want %d usable slides", accepted, fix.Slides)
	}
	if rejected != uint64(len(fix.Diagnostics)) {
		t.Errorf("rejected = %d, want %d diagnostics", rejected, len(fix.Diagnostics))
	}
	// Each stage span must also land in its duration histogram.
	for _, stage := range want {
		if h, ok := snap.Histograms["span."+stage]; !ok || h.Count != 1 {
			t.Errorf("span.%s histogram = %+v, ok=%v", stage, h, ok)
		}
	}

	// Same seed, same pipeline: a second run emits an identical span
	// sequence (durations differ; structure must not).
	_, events2, _ := runTraced(t, 7)
	stages2 := make([]string, len(events2))
	for i, e := range events2 {
		stages2[i] = e.Stage
	}
	if !reflect.DeepEqual(stages, stages2) {
		t.Fatalf("trace not reproducible: %v vs %v", stages, stages2)
	}
}

// TestObsConcurrentPipelines shares one sink+registry across concurrent
// localizations that each detect their two channels concurrently —
// `make check` runs this under the race detector, which is the point.
func TestObsConcurrentPipelines(t *testing.T) {
	sc := testScenario(7)
	s, err := Simulate(sc)
	if err != nil {
		t.Fatal(err)
	}
	sink := &obs.MemSink{}
	reg := obs.NewRegistry()
	o := obs.New(sink, reg)

	const runs = 4
	movements := make([]int, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cfg := DefaultConfigFor(sc.Phone, sc.Source)
			cfg.Obs = o
			loc, err := NewLocalizerConfig(cfg)
			if err != nil {
				t.Error(err)
				return
			}
			fix, err := loc.Locate2D(s)
			if err != nil {
				t.Error(err)
				return
			}
			movements[i] = fix.Movements
		}(i)
	}
	wg.Wait()

	total := 0
	for _, m := range movements {
		total += m
	}
	snap := reg.Snapshot()
	accepted := snap.Counters[core.MSlideAccepted]
	rejected := snap.SumPrefix(core.MSlideRejectedPrefix)
	if got := accepted + rejected; got != uint64(total) {
		t.Fatalf("accepted(%d)+rejected(%d) = %d across %d runs, want %d movements",
			accepted, rejected, got, runs, total)
	}
	if got := len(sink.Events()); got != runs*5 {
		t.Fatalf("sink saw %d spans, want %d (5 per run)", got, runs*5)
	}
}
