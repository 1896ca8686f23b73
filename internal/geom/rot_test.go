package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQuatMatchesMatrix(t *testing.T) {
	axis := Vec3{1, 2, 3}
	angle := 0.9
	q := QuatAxisAngle(axis, angle)
	v := Vec3{0.3, -0.4, 1.2}
	byQuat := q.Apply(v)
	byMat := q.Mat().Apply(v)
	if !vec3AlmostEq(byQuat, byMat, 1e-12) {
		t.Errorf("quat apply %v != matrix apply %v", byQuat, byMat)
	}
}

func TestQuatComposition(t *testing.T) {
	q1 := QuatAxisAngle(Vec3{0, 0, 1}, 0.5)
	q2 := QuatAxisAngle(Vec3{1, 0, 0}, -0.8)
	v := Vec3{1, 1, 1}
	composed := q2.Mul(q1).Apply(v)
	sequential := q2.Apply(q1.Apply(v))
	if !vec3AlmostEq(composed, sequential, 1e-12) {
		t.Errorf("composition mismatch: %v vs %v", composed, sequential)
	}
}

func TestQuatConjIsInverse(t *testing.T) {
	q := QuatAxisAngle(Vec3{2, -1, 0.5}, 1.3)
	v := Vec3{0.1, 0.2, 0.3}
	back := q.Conj().Apply(q.Apply(v))
	if !vec3AlmostEq(back, v, 1e-12) {
		t.Errorf("q*·q·v = %v, want %v", back, v)
	}
}

func TestQuatZeroAxisIsIdentity(t *testing.T) {
	q := QuatAxisAngle(Vec3{}, 1.0)
	if q != QuatIdentity() {
		t.Errorf("zero axis = %v, want identity", q)
	}
}

func TestQuatNormalizeZero(t *testing.T) {
	var q Quat
	if got := q.Normalize(); got != QuatIdentity() {
		t.Errorf("Normalize(zero quat) = %v, want identity", got)
	}
}

func TestQuatRotationPreservesNormProperty(t *testing.T) {
	f := func(ax, ay, az, angle, vx, vy, vz float64) bool {
		q := QuatAxisAngle(Vec3{clampf(ax), clampf(ay), clampf(az)}, clampf(angle))
		v := Vec3{clampf(vx), clampf(vy), clampf(vz)}
		return math.Abs(q.Apply(v).Norm()-v.Norm()) < 1e-7*(1+v.Norm())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuatRoundTripProperty(t *testing.T) {
	f := func(ax, ay, az, angle, vx, vy, vz float64) bool {
		q := QuatAxisAngle(Vec3{clampf(ax), clampf(ay), clampf(az)}, clampf(angle))
		v := Vec3{clampf(vx), clampf(vy), clampf(vz)}
		back := q.Conj().Apply(q.Apply(v))
		return vec3AlmostEq(back, v, 1e-7*(1+v.Norm()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDegreesRadians(t *testing.T) {
	if !almostEq(Degrees(math.Pi), 180, eps) {
		t.Error("Degrees(π) != 180")
	}
	if !almostEq(Radians(90), math.Pi/2, eps) {
		t.Error("Radians(90) != π/2")
	}
}

func TestWrapAngle(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi, math.Pi},
		{2 * math.Pi, 0},
		{-3 * math.Pi / 2, math.Pi / 2},
	}
	for _, c := range cases {
		if got := WrapAngle(c.in); !almostEq(got, c.want, eps) {
			t.Errorf("WrapAngle(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
