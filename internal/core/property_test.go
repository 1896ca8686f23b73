package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"hyperear/internal/geom"
)

// Property tests on the pipeline's mathematical invariants, via
// testing/quick where the input space is simple and seeded loops where
// structured inputs are needed.

// TestLocalizeSlideSelfConsistencyProperty: for random geometries, exact
// beacon timestamps must triangulate back to the speaker (mm-level).
func TestLocalizeSlideSelfConsistencyProperty(t *testing.T) {
	cfg := DefaultTTLConfig()
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 150; i++ {
		spk := geom.Vec2{
			X: 0.8 + 7*rng.Float64(),
			Y: -1 + 2*rng.Float64(),
		}
		startY := -0.3 + 0.6*rng.Float64()
		dispY := 0.3 + 0.4*rng.Float64()
		if rng.Intn(2) == 0 {
			dispY = -dispY
		}
		n := 5 + rng.Intn(6)
		before, after := syntheticSlideBeacons(spk, startY, dispY,
			cfg.MicSeparation, cfg.SpeedOfSound, 0.2, n)
		fix, err := LocalizeSlide(before, after, 0.2, dispY, startY, 0, 0, cfg)
		if err != nil {
			t.Fatalf("case %d (spk %v): %v", i, spk, err)
		}
		if d := fix.Pos.Sub(spk).Norm(); d > 2e-3 {
			t.Fatalf("case %d: error %.2f mm (spk %v, got %v)", i, d*1000, spk, fix.Pos)
		}
	}
}

// TestCorrectVelocityInvariantProperty: for any acceleration series, the
// corrected terminal velocity is exactly zero — that is the definition of
// the eq. (4) anchor.
func TestCorrectVelocityInvariantProperty(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) < 2 {
			return true
		}
		a := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			a = append(a, math.Mod(v, 10))
		}
		if len(a) < 2 {
			return true
		}
		vel, _ := CorrectVelocity(a, 100)
		return math.Abs(vel[len(vel)-1]) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestSegmentationCoverageProperty: segments never overlap, are ordered,
// and lie within the trace.
func TestSegmentationCoverageProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	for trial := 0; trial < 50; trial++ {
		n := 200 + rng.Intn(800)
		power := make([]float64, n)
		for i := range power {
			if rng.Float64() < 0.2 {
				power[i] = rng.Float64() * 2
			}
		}
		segs := segment(power, 0.5, 5)
		prevEnd := -1
		for _, s := range segs {
			if s.Start < 0 || s.End > n || s.Start >= s.End {
				t.Fatalf("trial %d: malformed segment %+v", trial, s)
			}
			if s.Start < prevEnd {
				t.Fatalf("trial %d: overlapping segments", trial)
			}
			prevEnd = s.End
		}
	}
}

// TestProjectDistanceBoundProperty: the projected distance never exceeds
// the slant distance L1 (projection shortens).
func TestProjectDistanceBoundProperty(t *testing.T) {
	f := func(rawL, rawZ, rawH float64) bool {
		lStar := 0.5 + math.Abs(math.Mod(rawL, 8))
		z1 := math.Mod(rawZ, 1.2)
		h := 0.2 + math.Abs(math.Mod(rawH, 0.6))
		if math.IsNaN(lStar) || math.IsNaN(z1) || math.IsNaN(h) {
			return true
		}
		l1 := math.Hypot(lStar, z1)
		l2 := math.Hypot(lStar, z1-h)
		got, err := ProjectDistanceClamped(l1, l2, h, 1.5)
		if err != nil {
			return true
		}
		return got <= l1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestSolveFull3DMirrorSymmetryProperty: observations with mics confined
// to the x=0 plane admit the mirrored solution; the solver must return
// whichever lies inside the trust region of the guess, and folding it
// onto positive x must reproduce the speaker for random geometries.
func TestSolveFull3DMirrorSymmetryProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 60; trial++ {
		spk := geom.Vec3{
			X: 1.5 + 4*rng.Float64(),
			Y: -0.8 + 1.6*rng.Float64(),
			Z: -1 + 2*rng.Float64(),
		}
		mk := func(b, a geom.Vec3) SlideObservation {
			return SlideObservation{Before: b, After: a, DeltaD: spk.Dist(a) - spk.Dist(b)}
		}
		dy := 0.4 + 0.3*rng.Float64()
		dz := 0.3 + 0.3*rng.Float64()
		obs := []SlideObservation{
			mk(geom.Vec3{Y: 0.07}, geom.Vec3{Y: 0.07 + dy}),
			mk(geom.Vec3{Y: -0.07}, geom.Vec3{Y: -0.07 + dy}),
			mk(geom.Vec3{Y: 0.07}, geom.Vec3{Y: 0.07, Z: dz}),
			mk(geom.Vec3{Y: -0.07}, geom.Vec3{Y: -0.07, Z: dz}),
		}
		guess := geom.Vec3{X: spk.X + (rng.Float64() - 0.5), Y: 0, Z: 0}
		got, err := SolveFull3D(obs, guess)
		if err != nil {
			t.Fatalf("trial %d (spk %v): %v", trial, spk, err)
		}
		if got.X < 0 {
			got.X = -got.X
		}
		if d := got.Dist(spk); d > 1e-3 {
			t.Fatalf("trial %d: error %.2f mm (spk %v, got %v)", trial, d*1000, spk, got)
		}
	}
}
