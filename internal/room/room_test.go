package room

import (
	"math"
	"testing"

	"hyperear/internal/geom"
)

func TestPresetsValidate(t *testing.T) {
	for _, e := range []Environment{MeetingRoom(), MallCorridor(), FreeField()} {
		if err := e.Validate(); err != nil {
			t.Errorf("%s: %v", e.Name, err)
		}
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Environment)
	}{
		{"zero size", func(e *Environment) { e.Size.X = 0 }},
		{"reflectance 1", func(e *Environment) { e.WallReflect = 1 }},
		{"negative reflectance", func(e *Environment) { e.WallReflect = -0.1 }},
		{"order too high", func(e *Environment) { e.ReflectionOrder = 9 }},
		{"negative absorption", func(e *Environment) { e.AirAbsorptionDBPerM = -1 }},
	}
	for _, c := range cases {
		e := MeetingRoom()
		c.mut(&e)
		if err := e.Validate(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestSpeedOfSound(t *testing.T) {
	e := Environment{TemperatureC: 20}
	if got := e.SpeedOfSound(); math.Abs(got-343.2) > 0.5 {
		t.Errorf("c(20°C) = %v, want ≈343", got)
	}
	e.TemperatureC = 0
	if got := e.SpeedOfSound(); math.Abs(got-331.3) > 0.1 {
		t.Errorf("c(0°C) = %v, want 331.3", got)
	}
	// Warmer air is faster.
	cold := Environment{TemperatureC: 5}.SpeedOfSound()
	warm := Environment{TemperatureC: 30}.SpeedOfSound()
	if warm <= cold {
		t.Errorf("speed should grow with temperature: %v vs %v", warm, cold)
	}
}

func TestPathsLoSOnly(t *testing.T) {
	e := FreeField()
	src := geom.Vec3{X: 3, Y: 4, Z: 1.5}
	paths := e.Paths(src)
	if len(paths) != 1 {
		t.Fatalf("free field should have 1 path, got %d", len(paths))
	}
	if paths[0].Image != src || paths[0].Gain != 1 || paths[0].Bounces != 0 {
		t.Errorf("direct path = %+v", paths[0])
	}
}

func TestPathsFirstOrder(t *testing.T) {
	e := MeetingRoom() // order 1
	src := geom.Vec3{X: 3, Y: 4, Z: 1.5}
	paths := e.Paths(src)
	// Direct + 6 first-order images (2 per axis).
	if len(paths) != 7 {
		t.Fatalf("order-1 shoebox should have 7 paths, got %d", len(paths))
	}
	if paths[0].Bounces != 0 {
		t.Errorf("first path should be direct, got %d bounces", paths[0].Bounces)
	}
	// Check the floor image: z -> -z.
	found := false
	for _, p := range paths[1:] {
		if p.Bounces != 1 {
			t.Errorf("order-1 path with %d bounces", p.Bounces)
		}
		if math.Abs(p.Gain-e.WallReflect) > 1e-12 {
			t.Errorf("1-bounce gain = %v, want %v", p.Gain, e.WallReflect)
		}
		if p.Image == (geom.Vec3{X: 3, Y: 4, Z: -1.5}) {
			found = true
		}
	}
	if !found {
		t.Error("floor image (z=-1.5) missing")
	}
}

func TestPathsSecondOrderCountsAndGains(t *testing.T) {
	e := MallCorridor() // order 2
	src := geom.Vec3{X: 10, Y: 8, Z: 1.5}
	paths := e.Paths(src)
	counts := map[int]int{}
	for _, p := range paths {
		counts[p.Bounces]++
		want := math.Pow(e.WallReflect, float64(p.Bounces))
		if math.Abs(p.Gain-want) > 1e-12 {
			t.Errorf("gain for %d bounces = %v, want %v", p.Bounces, p.Gain, want)
		}
	}
	if counts[0] != 1 {
		t.Errorf("direct paths = %d, want 1", counts[0])
	}
	if counts[1] != 6 {
		t.Errorf("1-bounce paths = %d, want 6", counts[1])
	}
	// Second order: same-axis double bounces (2 per axis x 2 directions... )
	// plus cross-axis combinations (3 pairs x 4) = 6 + 12 = 18.
	if counts[2] != 18 {
		t.Errorf("2-bounce paths = %d, want 18", counts[2])
	}
}

func TestPathDelaysPlausible(t *testing.T) {
	// Every image path must be at least as long as the direct path.
	e := MallCorridor()
	src := geom.Vec3{X: 10, Y: 8, Z: 1.5}
	rcv := geom.Vec3{X: 14, Y: 8, Z: 1.2}
	paths := e.Paths(src)
	direct := paths[0].Image.Dist(rcv)
	for i, p := range paths[1:] {
		if d := p.Image.Dist(rcv); d < direct-1e-9 {
			t.Errorf("image path %d shorter than direct: %v < %v", i+1, d, direct)
		}
	}
}

func TestAttenuation(t *testing.T) {
	e := MeetingRoom()
	// Spreading: 1/d referenced to 1 m.
	a1 := e.Attenuation(1, 1)
	a2 := e.Attenuation(2, 1)
	if a2 >= a1 {
		t.Errorf("attenuation should fall with distance: %v vs %v", a1, a2)
	}
	ratio := a1 / a2
	if ratio < 2 || ratio > 2.2 {
		t.Errorf("1m/2m ratio = %v, want slightly above 2 (spreading + air)", ratio)
	}
	// Near-field clamp.
	if got := e.Attenuation(0.001, 1); got != e.Attenuation(0.1, 1) {
		t.Errorf("near-field should clamp at 0.1 m: %v", got)
	}
	// Bounce gain scales linearly.
	if got, want := e.Attenuation(2, 0.5), a2*0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("bounce gain scaling = %v, want %v", got, want)
	}
}
