// Package room models the indoor acoustic environments of the paper's
// evaluation: a shoebox geometry with image-source multipath, air
// absorption, temperature-dependent sound speed, and the four background
// noise regimes of Figure 19 (quiet room, chatting room, mall during
// off-peak hours, mall during busy hours).
package room

import (
	"fmt"
	"math"

	"hyperear/internal/geom"
)

// Environment is a rectangular ("shoebox") indoor space. The origin sits at
// one floor corner; x spans [0, Size.X], y spans [0, Size.Y], z spans
// [0, Size.Z] with the floor at z = 0.
type Environment struct {
	// Name labels the environment in reports.
	Name string
	// Size is the room extent in meters.
	Size geom.Vec3
	// WallReflect is the broadband amplitude reflection coefficient of the
	// walls/floor/ceiling in [0, 1); 0 disables reflections entirely.
	WallReflect float64
	// ReflectionOrder bounds the total number of wall bounces per image
	// path (0 = line-of-sight only).
	ReflectionOrder int
	// TemperatureC is the air temperature in °C (affects sound speed).
	TemperatureC float64
	// AirAbsorptionDBPerM is the broadband atmospheric attenuation in
	// dB per meter of path length (≈0.02-0.05 dB/m in the chirp band).
	AirAbsorptionDBPerM float64
}

// MeetingRoom returns the paper's 17 m × 13 m meeting room (§VII-A), with
// moderately absorbent surfaces (theatre seats, stage) and first-order
// reflections.
func MeetingRoom() Environment {
	return Environment{
		Name:                "meeting-room",
		Size:                geom.Vec3{X: 17, Y: 13, Z: 4},
		WallReflect:         0.35,
		ReflectionOrder:     1,
		TemperatureC:        20,
		AirAbsorptionDBPerM: 0.03,
	}
}

// MallCorridor returns the paper's 95 m × 16.5 m shopping-mall corridor
// with harder, more reverberant surfaces and second-order reflections.
func MallCorridor() Environment {
	return Environment{
		Name:                "mall-corridor",
		Size:                geom.Vec3{X: 95, Y: 16.5, Z: 6},
		WallReflect:         0.55,
		ReflectionOrder:     2,
		TemperatureC:        22,
		AirAbsorptionDBPerM: 0.03,
	}
}

// FreeField returns an anechoic environment (line-of-sight only), useful
// for isolating algorithmic error from multipath effects.
func FreeField() Environment {
	return Environment{
		Name:         "free-field",
		Size:         geom.Vec3{X: 1000, Y: 1000, Z: 1000},
		TemperatureC: 20,
	}
}

// Validate reports configuration errors.
func (e Environment) Validate() error {
	switch {
	case e.Size.X <= 0 || e.Size.Y <= 0 || e.Size.Z <= 0:
		return fmt.Errorf("room: size %v must be positive", e.Size)
	case e.WallReflect < 0 || e.WallReflect >= 1:
		return fmt.Errorf("room: wall reflectance %v outside [0,1)", e.WallReflect)
	case e.ReflectionOrder < 0 || e.ReflectionOrder > 4:
		return fmt.Errorf("room: reflection order %d outside [0,4]", e.ReflectionOrder)
	case e.AirAbsorptionDBPerM < 0:
		return fmt.Errorf("room: air absorption %v must be >= 0", e.AirAbsorptionDBPerM)
	}
	return nil
}

// SpeedOfSound returns the sound speed in m/s at the environment's
// temperature: c = 331.3·sqrt(1 + T/273.15).
func (e Environment) SpeedOfSound() float64 {
	return 331.3 * math.Sqrt(1+e.TemperatureC/273.15)
}

// Path is one acoustic propagation path from a (possibly image) source.
type Path struct {
	// Image is the image-source position; the path delay to a receiver at
	// r is |Image - r| / c and spherical spreading applies over that same
	// distance.
	Image geom.Vec3
	// Gain is the amplitude factor from wall bounces (excludes spreading
	// and air absorption, which depend on the receiver position).
	Gain float64
	// Bounces is the number of wall reflections along the path.
	Bounces int
}

// Paths enumerates the image sources for a physical source at src, up to
// the environment's ReflectionOrder. The direct path (zero bounces, unit
// gain) is always first.
func (e Environment) Paths(src geom.Vec3) []Path {
	order := e.ReflectionOrder
	if order == 0 || e.WallReflect == 0 {
		return []Path{{Image: src, Gain: 1}}
	}
	// Along each axis the image coordinates are s + 2nL (2|n| bounces) and
	// -s + 2nL (|2n-1| bounces). Enumerate n so per-axis bounces <= order.
	type axImg struct {
		pos     float64
		bounces int
	}
	axis := func(s, length float64) []axImg {
		var out []axImg
		nMax := order/2 + 1
		for n := -nMax; n <= nMax; n++ {
			if b := 2 * absInt(n); b <= order {
				out = append(out, axImg{pos: s + 2*float64(n)*length, bounces: b})
			}
			if b := absInt(2*n - 1); b <= order {
				out = append(out, axImg{pos: -s + 2*float64(n)*length, bounces: b})
			}
		}
		return out
	}
	xs := axis(src.X, e.Size.X)
	ys := axis(src.Y, e.Size.Y)
	zs := axis(src.Z, e.Size.Z)

	paths := make([]Path, 0, len(xs)*len(ys)*len(zs))
	var direct Path
	for _, ix := range xs {
		for _, iy := range ys {
			for _, iz := range zs {
				b := ix.bounces + iy.bounces + iz.bounces
				if b > order {
					continue
				}
				p := Path{
					Image:   geom.Vec3{X: ix.pos, Y: iy.pos, Z: iz.pos},
					Gain:    math.Pow(e.WallReflect, float64(b)),
					Bounces: b,
				}
				if b == 0 {
					direct = p
					continue
				}
				paths = append(paths, p)
			}
		}
	}
	return append([]Path{direct}, paths...)
}

// Attenuation returns the total amplitude factor over a path of length d
// meters with the given bounce gain: spherical spreading (referenced to
// 1 m) times air absorption times the bounce gain. Distances below 0.1 m
// are clamped to avoid the near-field singularity.
func (e Environment) Attenuation(d, bounceGain float64) float64 {
	if d < 0.1 {
		d = 0.1
	}
	spreading := 1 / d
	air := math.Pow(10, -e.AirAbsorptionDBPerM*d/20)
	return spreading * air * bounceGain
}

func absInt(n int) int {
	if n < 0 {
		return -n
	}
	return n
}
