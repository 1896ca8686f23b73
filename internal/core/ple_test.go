package core

import (
	"math"
	"testing"
	"testing/quick"
)

// The eq. (7) geometry tests run on ProjectDistanceClamped with the
// pipeline's 1.5 m offset bound: every triangle here is consistent, with
// |z1| below the bound, where the clamped form is eq. (7) itself.

func TestProjectDistanceExact(t *testing.T) {
	// Construct the triangle from known geometry: speaker at horizontal
	// distance L* and vertical offsets z1, z2 from the two slide lines.
	cases := []struct {
		lStar, z1, z2 float64
	}{
		{5, 0.7, 0.3},   // speaker below both statures
		{7, 1.2, 0.8},   //
		{3, -0.2, -0.6}, // speaker above both statures
		{2, 0.5, 0.1},
	}
	for _, c := range cases {
		h := c.z1 - c.z2 // stature change
		l1 := math.Hypot(c.lStar, c.z1)
		l2 := math.Hypot(c.lStar, c.z2)
		got, err := ProjectDistanceClamped(l1, l2, h, 1.5)
		if err != nil {
			t.Fatalf("case %+v: %v", c, err)
		}
		if math.Abs(got-c.lStar) > 1e-9 {
			t.Errorf("L* = %v, want %v (case %+v)", got, c.lStar, c)
		}
	}
}

func TestProjectDistancePropertyRandomGeometry(t *testing.T) {
	f := func(rawL, rawZ1, rawH float64) bool {
		lStar := 1 + math.Abs(math.Mod(rawL, 8))
		z1 := math.Mod(rawZ1, 1.2)
		h := 0.3 + math.Abs(math.Mod(rawH, 0.8))
		if math.IsNaN(lStar) || math.IsNaN(z1) || math.IsNaN(h) {
			return true
		}
		z2 := z1 - h
		l1 := math.Hypot(lStar, z1)
		l2 := math.Hypot(lStar, z2)
		got, err := ProjectDistanceClamped(l1, l2, h, 1.5)
		if err != nil {
			return false
		}
		return math.Abs(got-lStar) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestProjectDistanceErrors(t *testing.T) {
	if _, err := ProjectDistanceClamped(0, 1, 0.5, 1.5); err == nil {
		t.Error("zero l1 should error")
	}
	if _, err := ProjectDistanceClamped(1, 0, 0.5, 1.5); err == nil {
		t.Error("zero l2 should error")
	}
	if _, err := ProjectDistanceClamped(1, 1, 0, 1.5); err == nil {
		t.Error("zero stature change should error")
	}
}

func TestProjectDistanceNegativeH(t *testing.T) {
	// The sign of the stature change must not matter.
	lStar := 5.0
	z1, z2 := 0.7, 0.3
	l1 := math.Hypot(lStar, z1)
	l2 := math.Hypot(lStar, z2)
	up, err := ProjectDistanceClamped(l1, l2, z1-z2, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	down, err := ProjectDistanceClamped(l1, l2, -(z1 - z2), 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(up-down) > 1e-12 {
		t.Errorf("sign of H changed the result: %v vs %v", up, down)
	}
}

func TestAggregate(t *testing.T) {
	if got := aggregate([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := aggregate([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := aggregate([]float64{7}); got != 7 {
		t.Errorf("single = %v, want 7", got)
	}
	if !math.IsNaN(aggregate(nil)) {
		t.Error("empty aggregate should be NaN")
	}
	// Median is robust to one wild outlier.
	if got := aggregate([]float64{5.0, 5.1, 4.9, 5.05, 50}); math.Abs(got-5.05) > 1e-12 {
		t.Errorf("outlier median = %v, want 5.05", got)
	}
	// Input must not be mutated.
	in := []float64{3, 1, 2}
	aggregate(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Error("aggregate mutated its input")
	}
}

func TestBetaOf(t *testing.T) {
	// Right triangle: l1 = hypotenuse of (L*, h), l2 = L* → β < π/2.
	lStar, h := 4.0, 0.5
	l1 := math.Hypot(lStar, h)
	beta := betaOf(l1, lStar, h)
	want := math.Acos(h / l1)
	if math.Abs(beta-want) > 1e-9 {
		t.Errorf("beta = %v, want %v", beta, want)
	}
	if !math.IsNaN(betaOf(1, 1, 0)) {
		t.Error("zero h should give NaN")
	}
	if !math.IsNaN(betaOf(1, 5, 0.5)) {
		t.Error("impossible triangle should give NaN")
	}
}
