package geom

import "math"

// Mat3 is a 3x3 rotation matrix in row-major order. No production path
// uses it: Quat.Mat and Mat3.Apply are the matrix reference that
// TestQuatMatchesMatrix checks Quat.Apply against.
type Mat3 [3][3]float64

// Apply returns m*v, the matrix side of TestQuatMatchesMatrix.
func (m Mat3) Apply(v Vec3) Vec3 {
	return Vec3{
		m[0][0]*v.X + m[0][1]*v.Y + m[0][2]*v.Z,
		m[1][0]*v.X + m[1][1]*v.Y + m[1][2]*v.Z,
		m[2][0]*v.X + m[2][1]*v.Y + m[2][2]*v.Z,
	}
}

// Quat is a unit quaternion w + xi + yj + zk representing a 3D rotation.
type Quat struct {
	W, X, Y, Z float64
}

// QuatIdentity returns the identity rotation.
func QuatIdentity() Quat { return Quat{W: 1} }

// QuatAxisAngle builds the quaternion rotating by angle radians about axis.
// The axis need not be normalized; a zero axis yields the identity.
func QuatAxisAngle(axis Vec3, angle float64) Quat {
	n := axis.Norm()
	if n == 0 {
		return QuatIdentity()
	}
	s, c := math.Sincos(angle / 2)
	u := axis.Scale(1 / n)
	return Quat{W: c, X: s * u.X, Y: s * u.Y, Z: s * u.Z}
}

// Mul returns the composition q*p (apply p first, then q).
func (q Quat) Mul(p Quat) Quat {
	return Quat{
		W: q.W*p.W - q.X*p.X - q.Y*p.Y - q.Z*p.Z,
		X: q.W*p.X + q.X*p.W + q.Y*p.Z - q.Z*p.Y,
		Y: q.W*p.Y - q.X*p.Z + q.Y*p.W + q.Z*p.X,
		Z: q.W*p.Z + q.X*p.Y - q.Y*p.X + q.Z*p.W,
	}
}

// Conj returns the conjugate (inverse for unit quaternions).
func (q Quat) Conj() Quat { return Quat{W: q.W, X: -q.X, Y: -q.Y, Z: -q.Z} }

// Norm returns the quaternion's Euclidean norm.
func (q Quat) Norm() float64 {
	return math.Sqrt(q.W*q.W + q.X*q.X + q.Y*q.Y + q.Z*q.Z)
}

// Normalize returns q scaled to unit norm. A zero quaternion becomes identity.
func (q Quat) Normalize() Quat {
	n := q.Norm()
	if n == 0 {
		return QuatIdentity()
	}
	return Quat{q.W / n, q.X / n, q.Y / n, q.Z / n}
}

// Apply rotates v by q.
func (q Quat) Apply(v Vec3) Vec3 {
	// v' = q (0,v) q*
	u := Vec3{q.X, q.Y, q.Z}
	t := u.Cross(v).Scale(2)
	return v.Add(t.Scale(q.W)).Add(u.Cross(t))
}

// Mat returns the equivalent rotation matrix. No production path calls
// it: it is TestQuatMatchesMatrix's reference for Quat.Apply.
func (q Quat) Mat() Mat3 {
	w, x, y, z := q.W, q.X, q.Y, q.Z
	return Mat3{
		{1 - 2*(y*y+z*z), 2 * (x*y - w*z), 2 * (x*z + w*y)},
		{2 * (x*y + w*z), 1 - 2*(x*x+z*z), 2 * (y*z - w*x)},
		{2 * (x*z - w*y), 2 * (y*z + w*x), 1 - 2*(x*x+y*y)},
	}
}

// Degrees converts radians to degrees.
func Degrees(rad float64) float64 { return rad * 180 / math.Pi }

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }

// WrapAngle wraps an angle in radians to (-π, π].
func WrapAngle(theta float64) float64 {
	for theta > math.Pi {
		theta -= 2 * math.Pi
	}
	for theta <= -math.Pi {
		theta += 2 * math.Pi
	}
	return theta
}
