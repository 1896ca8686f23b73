package motion

import (
	"fmt"

	"hyperear/internal/geom"
)

// Builder assembles a session trajectory phase by phase, tracking the
// phone's running position and yaw so phases join continuously. The phone
// is held flat (screen up); yaw is the rotation of the body frame about
// the world z-axis, with yaw 0 aligning body axes to world axes.
type Builder struct {
	parts []Trajectory
	pos   geom.Vec3
	yaw   float64
	err   error
}

// NewBuilder starts a session with the phone at start with the given yaw
// (radians).
func NewBuilder(start geom.Vec3, yaw float64) *Builder {
	return &Builder{pos: start, yaw: yaw}
}

func (b *Builder) orient() geom.Quat {
	return geom.QuatAxisAngle(geom.Vec3{Z: 1}, b.yaw)
}

// BodyY returns the world direction of the phone's +y (mic/slide) axis at
// the current yaw.
func (b *Builder) BodyY() geom.Vec3 {
	return b.orient().Apply(geom.Vec3{Y: 1})
}

// Hold keeps the phone still for dur seconds.
func (b *Builder) Hold(dur float64) *Builder {
	if b.check(dur > 0, "hold duration %v", dur) {
		b.parts = append(b.parts, hold{pos: b.pos, orient: b.orient(), dur: dur})
	}
	return b
}

// Slide moves the phone dist meters along its body +y axis (negative dist
// slides backward) over dur seconds with a minimum-jerk profile.
func (b *Builder) Slide(dist, dur float64) *Builder {
	dir := b.BodyY()
	if dist < 0 {
		dir = dir.Scale(-1)
		dist = -dist
	}
	return b.SlideWorld(dir, dist, dur)
}

// SlideWorld moves the phone dist meters along the given world direction
// over dur seconds, orientation unchanged.
func (b *Builder) SlideWorld(dir geom.Vec3, dist, dur float64) *Builder {
	if !b.check(dur > 0 && dist >= 0 && dir.Norm() > 0, "slide dist %v dur %v", dist, dur) {
		return b
	}
	dir = dir.Normalize()
	b.parts = append(b.parts, slide{
		start: b.pos, dir: dir, dist: dist, orient: b.orient(), dur: dur,
	})
	b.pos = b.pos.Add(dir.Scale(dist))
	return b
}

// ChangeHeight moves the phone vertically by dh meters over dur seconds
// (the stature change of the paper's 3D protocol, Fig. 11).
func (b *Builder) ChangeHeight(dh, dur float64) *Builder {
	if dh >= 0 {
		return b.SlideWorld(geom.Vec3{Z: 1}, dh, dur)
	}
	return b.SlideWorld(geom.Vec3{Z: -1}, -dh, dur)
}

// RotateTo yaws the phone about the world z-axis to the target yaw
// (radians) over dur seconds, position fixed — the rolling operation of
// the SDF stage.
func (b *Builder) RotateTo(yaw, dur float64) *Builder {
	if b.check(dur > 0, "rotate duration %v", dur) {
		b.parts = append(b.parts, rotZ{pos: b.pos, yaw0: b.yaw, yaw1: yaw, dur: dur})
		b.yaw = yaw
	}
	return b
}

// Build returns the assembled trajectory, or an error if any phase was
// invalid.
func (b *Builder) Build() (Trajectory, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.parts) == 0 {
		return nil, fmt.Errorf("motion: empty session")
	}
	return Compose(b.parts...), nil
}

func (b *Builder) check(ok bool, format string, args ...any) bool {
	if !ok && b.err == nil {
		b.err = fmt.Errorf("motion: invalid phase: "+format, args...)
	}
	return ok && b.err == nil
}
