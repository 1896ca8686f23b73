// Package geom provides the small amount of 2D/3D geometry HyperEar needs:
// vectors, quaternion rotations, body/world frame transforms, and the
// TDoA hyperbola utilities used throughout the paper's Section II
// analysis (region counts, region densities).
package geom

import (
	"fmt"
	"math"
)

// Vec2 is a 2D vector or point in meters.
type Vec2 struct {
	X, Y float64
}

// Add returns v + w.
func (v Vec2) Add(w Vec2) Vec2 { return Vec2{v.X + w.X, v.Y + w.Y} }

// Sub returns v - w.
func (v Vec2) Sub(w Vec2) Vec2 { return Vec2{v.X - w.X, v.Y - w.Y} }

// Scale returns s*v.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{s * v.X, s * v.Y} }

// Norm returns |v|.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Dist returns |v - w|.
func (v Vec2) Dist(w Vec2) float64 { return v.Sub(w).Norm() }

// Normalize returns v/|v|. The zero vector is returned unchanged.
func (v Vec2) Normalize() Vec2 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Rotate returns v rotated counterclockwise by theta radians.
func (v Vec2) Rotate(theta float64) Vec2 {
	s, c := math.Sincos(theta)
	return Vec2{c*v.X - s*v.Y, s*v.X + c*v.Y}
}

// String implements fmt.Stringer.
func (v Vec2) String() string { return fmt.Sprintf("(%.4f, %.4f)", v.X, v.Y) }

// Vec3 is a 3D vector or point in meters.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + w.
func (v Vec3) Add(w Vec3) Vec3 { return Vec3{v.X + w.X, v.Y + w.Y, v.Z + w.Z} }

// Sub returns v - w.
func (v Vec3) Sub(w Vec3) Vec3 { return Vec3{v.X - w.X, v.Y - w.Y, v.Z - w.Z} }

// Scale returns s*v.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{s * v.X, s * v.Y, s * v.Z} }

// Dot returns the dot product v·w.
func (v Vec3) Dot(w Vec3) float64 { return v.X*w.X + v.Y*w.Y + v.Z*w.Z }

// Cross returns the cross product v×w.
func (v Vec3) Cross(w Vec3) Vec3 {
	return Vec3{
		v.Y*w.Z - v.Z*w.Y,
		v.Z*w.X - v.X*w.Z,
		v.X*w.Y - v.Y*w.X,
	}
}

// Norm returns |v|.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Dist returns |v - w|.
func (v Vec3) Dist(w Vec3) float64 { return v.Sub(w).Norm() }

// Normalize returns v/|v|. The zero vector is returned unchanged.
func (v Vec3) Normalize() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// XY projects v onto the horizontal plane.
func (v Vec3) XY() Vec2 { return Vec2{v.X, v.Y} }

// String implements fmt.Stringer.
func (v Vec3) String() string { return fmt.Sprintf("(%.4f, %.4f, %.4f)", v.X, v.Y, v.Z) }

// Clamp restricts x to [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
