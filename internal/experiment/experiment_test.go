package experiment

import (
	"math/rand"
	"strings"
	"testing"

	"hyperear/internal/geom"
	"hyperear/internal/room"
	"hyperear/internal/stats"
)

// quickOpt keeps experiment tests fast: 2 trials per condition.
func quickOpt() Options {
	return Options{Trials: 2, Seed: 42}
}

func TestRunTrialsParallelDeterminism(t *testing.T) {
	run := func() ([]float64, int) {
		return runTrials(Options{Trials: 8, Parallelism: 4}, 7, func(trial int, rng *rand.Rand) (float64, error) {
			return float64(trial) + rng.Float64(), nil
		})
	}
	a, _ := run()
	b, _ := run()
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("lengths %d %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("parallel trials must be deterministic per seed")
		}
	}
}

func TestRunTrialsCountsFailures(t *testing.T) {
	errs, failed := runTrials(Options{Trials: 5, Parallelism: 2}, 1, func(trial int, _ *rand.Rand) (float64, error) {
		if trial%2 == 0 {
			return 0, errFake
		}
		return 1, nil
	})
	if failed != 3 || len(errs) != 2 {
		t.Errorf("failed=%d errs=%d, want 3/2", failed, len(errs))
	}
}

var errFake = &fakeErr{}

type fakeErr struct{}

func (*fakeErr) Error() string { return "fake" }

func TestPlaceInRoom(t *testing.T) {
	env := room.MeetingRoom()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		p, s := placeInRoom(env, 7, 1.2, 0.5, rng)
		if !inRoom(env, p) || !inRoom(env, s) {
			t.Fatalf("placement outside room: %v %v", p, s)
		}
		if d := p.XY().Dist(s.XY()); d < 6.99 || d > 7.01 {
			t.Fatalf("distance %v, want 7", d)
		}
		if p.Z != 1.2 || s.Z != 0.5 {
			t.Fatalf("heights %v %v", p.Z, s.Z)
		}
	}
}

// inRoom reports whether p lies inside env's box.
func inRoom(env room.Environment, p geom.Vec3) bool {
	return p.X >= 0 && p.X <= env.Size.X &&
		p.Y >= 0 && p.Y <= env.Size.Y &&
		p.Z >= 0 && p.Z <= env.Size.Z
}

func TestPlaceInRoomFallback(t *testing.T) {
	// A distance that can never fit with margins triggers the fallback.
	env := room.Environment{Name: "tiny", Size: geom.Vec3{X: 4, Y: 4, Z: 3}}
	rng := rand.New(rand.NewSource(4))
	p, s := placeInRoom(env, 30, 1, 1, rng)
	if d := p.XY().Dist(s.XY()); d != 30 {
		t.Errorf("fallback distance %v, want 30", d)
	}
}

func TestSlideDuration(t *testing.T) {
	if got := slideDuration(0.55); got < 1.0 || got > 1.1 {
		t.Errorf("55cm duration = %v, want ≈1.03", got)
	}
	if got := slideDuration(0.1); got != 0.4 {
		t.Errorf("10cm duration = %v, want floor 0.4", got)
	}
}

func TestFigureString(t *testing.T) {
	f := Figure{
		ID:    "figX",
		Title: "test",
		Conditions: []Condition{
			{Label: "a", Errors: []float64{0.1, 0.2}, Paper: "mean 15cm"},
			{Label: "b", Series: []Point{{X: 1, Y: 2}}},
		},
		Notes: []string{"hello"},
	}
	out := f.String()
	for _, want := range []string{"figX", "mean=15.0cm", "paper: mean 15cm", "note: hello", "1.0000"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
	cdf := f.CDFReport(0.5)
	if !strings.Contains(cdf, "figX / a") {
		t.Errorf("CDFReport missing condition header:\n%s", cdf)
	}
}

func TestRunFig3(t *testing.T) {
	fig := RunFig3(Options{Trials: 3, Seed: 1})
	if len(fig.Conditions) != 5 {
		t.Fatalf("conditions = %d, want 5", len(fig.Conditions))
	}
	// Error must grow from 1 m to 5 m.
	e1 := fig.Conditions[0].Summary().Mean
	e5 := fig.Conditions[4].Summary().Mean
	if !(e5 > e1) {
		t.Errorf("naive error should grow: 1m=%v 5m=%v", e1, e5)
	}
	if !strings.Contains(fig.Notes[0], "N = 35") {
		t.Errorf("note should quote N=35: %v", fig.Notes)
	}
}

func TestRunFig4(t *testing.T) {
	fig := RunFig4(quickOpt())
	if len(fig.Conditions) != 2 {
		t.Fatalf("conditions = %d", len(fig.Conditions))
	}
	// Broadside (90°) width with the wide baseline must be below the
	// narrow baseline's.
	mid := len(fig.Conditions[0].Series) / 2
	narrow := fig.Conditions[0].Series[mid].Y
	wide := fig.Conditions[1].Series[mid].Y
	if !(wide < narrow) {
		t.Errorf("wide baseline should be denser: %v vs %v", wide, narrow)
	}
}

func TestRunFig7(t *testing.T) {
	fig := RunFig7(quickOpt())
	if len(fig.Conditions) < 2 {
		t.Fatalf("conditions = %d (notes: %v)", len(fig.Conditions), fig.Notes)
	}
	meas := fig.Conditions[0].Series
	if len(meas) < 20 {
		t.Fatalf("measured series too short: %d", len(meas))
	}
	// In-direction fixes must appear in the notes.
	found := false
	for _, n := range fig.Notes {
		if strings.Contains(n, "in-direction fix") {
			found = true
		}
	}
	if !found {
		t.Errorf("no SDF fixes reported: %v", fig.Notes)
	}
}

func TestRunFig8(t *testing.T) {
	fig := RunFig8(quickOpt())
	if len(fig.Conditions) != 1 || len(fig.Conditions[0].Series) == 0 {
		t.Fatalf("unexpected conditions: %+v", fig.Conditions)
	}
	if !strings.Contains(strings.Join(fig.Notes, " "), "segments found: 3") {
		t.Errorf("expected 3 segments: %v", fig.Notes)
	}
}

func TestRunFig9(t *testing.T) {
	fig := RunFig9(quickOpt())
	if len(fig.Conditions) != 2 {
		t.Fatalf("conditions = %d (notes: %v)", len(fig.Conditions), fig.Notes)
	}
	// The corrected displacement note must be present.
	joined := strings.Join(fig.Notes, " ")
	if !strings.Contains(joined, "truth 0.550") {
		t.Errorf("notes missing displacement comparison: %v", fig.Notes)
	}
}

func TestRunFig14Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	fig := RunFig14(Options{Trials: 2, Seed: 5})
	if len(fig.Conditions) != 4 {
		t.Fatalf("conditions = %d", len(fig.Conditions))
	}
	short := fig.Conditions[0].Summary()
	long := fig.Conditions[3].Summary()
	if short.N == 0 || long.N == 0 {
		t.Fatalf("missing samples: %+v", fig.Conditions)
	}
	if !(long.Mean < short.Mean) {
		t.Errorf("longer slides should be more accurate: 10-20cm=%v 50-60cm=%v",
			short.Mean, long.Mean)
	}
}

func TestRunFig15Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	fig := RunFig15(Options{Trials: 2, Seed: 6})
	if len(fig.Conditions) != 5 {
		t.Fatalf("conditions = %d", len(fig.Conditions))
	}
	near := fig.Conditions[0].Summary() // 1 m
	far := fig.Conditions[4].Summary()  // 7 m
	if near.N == 0 || far.N == 0 {
		t.Fatalf("missing samples")
	}
	if !(near.Mean < far.Mean) {
		t.Errorf("near should beat far: 1m=%v 7m=%v", near.Mean, far.Mean)
	}
	if near.Mean > 0.15 {
		t.Errorf("1m mean = %v, want centimeters", near.Mean)
	}
}

func TestRunFig19Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	fig := RunFig19(Options{Trials: 2, Seed: 7})
	if len(fig.Conditions) != 4 {
		t.Fatalf("conditions = %d", len(fig.Conditions))
	}
	for _, c := range fig.Conditions {
		if len(c.Errors)+c.Failed != 2 {
			t.Errorf("%s: %d errors + %d failed != trials", c.Label, len(c.Errors), c.Failed)
		}
	}
}

func TestRunAblationDirectionQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	fig := RunAblationDirection(Options{Trials: 2, Seed: 8})
	if len(fig.Conditions) != 3 {
		t.Fatalf("conditions = %d", len(fig.Conditions))
	}
	aligned := stats.Summarize(fig.Conditions[0].Errors)
	off45 := stats.Summarize(fig.Conditions[2].Errors)
	if aligned.N == 0 {
		t.Fatal("aligned condition has no samples")
	}
	// Off-direction should not be better than aligned (it may fail more).
	if off45.N > 0 && off45.Mean+0.02 < aligned.Mean {
		t.Errorf("45° off-direction unexpectedly better: %v vs %v", off45.Mean, aligned.Mean)
	}
}
