package geom

import (
	"math"
	"testing"
	"testing/quick"
)

const eps = 1e-9

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func vec3AlmostEq(a, b Vec3, tol float64) bool {
	return a.Sub(b).Norm() <= tol
}

func TestVec2Basics(t *testing.T) {
	a := Vec2{3, 4}
	b := Vec2{-1, 2}
	if got := a.Add(b); got != (Vec2{2, 6}) {
		t.Errorf("Add = %v, want (2,6)", got)
	}
	if got := a.Sub(b); got != (Vec2{4, 2}) {
		t.Errorf("Sub = %v, want (4,2)", got)
	}
	if got := a.Norm(); !almostEq(got, 5, eps) {
		t.Errorf("Norm = %v, want 5", got)
	}
	if got := a.Dist(b); !almostEq(got, math.Sqrt(16+4), eps) {
		t.Errorf("Dist = %v", got)
	}
	if got := a.Scale(2); got != (Vec2{6, 8}) {
		t.Errorf("Scale = %v", got)
	}
}

func TestVec2Rotate(t *testing.T) {
	v := Vec2{1, 0}
	r := v.Rotate(math.Pi / 2)
	if !almostEq(r.X, 0, eps) || !almostEq(r.Y, 1, eps) {
		t.Errorf("Rotate(π/2) = %v, want (0,1)", r)
	}
	r = v.Rotate(math.Pi)
	if !almostEq(r.X, -1, eps) || !almostEq(r.Y, 0, eps) {
		t.Errorf("Rotate(π) = %v, want (-1,0)", r)
	}
}

func TestVec2NormalizeZero(t *testing.T) {
	z := Vec2{}
	if got := z.Normalize(); got != z {
		t.Errorf("Normalize(0) = %v, want zero", got)
	}
}

func TestVec3Cross(t *testing.T) {
	x := Vec3{1, 0, 0}
	y := Vec3{0, 1, 0}
	z := x.Cross(y)
	if !vec3AlmostEq(z, Vec3{0, 0, 1}, eps) {
		t.Errorf("x×y = %v, want z", z)
	}
	if !vec3AlmostEq(y.Cross(x), Vec3{0, 0, -1}, eps) {
		t.Errorf("y×x should be -z")
	}
}

func TestVec3CrossOrthogonalProperty(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		a := Vec3{clampf(ax), clampf(ay), clampf(az)}
		b := Vec3{clampf(bx), clampf(by), clampf(bz)}
		c := a.Cross(b)
		// c must be orthogonal to both a and b.
		tol := 1e-6 * (1 + a.Norm()*b.Norm())
		return math.Abs(c.Dot(a)) < tol && math.Abs(c.Dot(b)) < tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClamp(t *testing.T) {
	cases := []struct{ x, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
	}
	for _, c := range cases {
		if got := Clamp(c.x, c.lo, c.hi); got != c.want {
			t.Errorf("Clamp(%v,%v,%v) = %v, want %v", c.x, c.lo, c.hi, got, c.want)
		}
	}
}

// clampf maps arbitrary quick-generated floats into a sane range and
// removes NaN/Inf.
func clampf(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return math.Mod(x, 100)
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		a := Vec2{clampf(ax), clampf(ay)}
		b := Vec2{clampf(bx), clampf(by)}
		return a.Add(b).Norm() <= a.Norm()+b.Norm()+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRotatePreservesNormProperty(t *testing.T) {
	f := func(x, y, th float64) bool {
		v := Vec2{clampf(x), clampf(y)}
		r := v.Rotate(clampf(th))
		return almostEq(v.Norm(), r.Norm(), 1e-9*(1+v.Norm()))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
