package motion

import (
	"math"
	"math/rand"
	"testing"

	"hyperear/internal/geom"
)

func TestNoTremorIsIdentity(t *testing.T) {
	b := NewBuilder(geom.Vec3{}, 0)
	base, err := b.Slide(0.5, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	shaky := &Shaky{Base: base, Tremor: &Tremor{}}
	for _, tt := range []float64{0, 0.25, 0.5, 1} {
		a := base.Pose(tt)
		bb := shaky.Pose(tt)
		if a.Pos.Sub(bb.Pos).Norm() > 1e-12 || a.Vel.Sub(bb.Vel).Norm() > 1e-12 {
			t.Errorf("t=%v: a zero tremor changed the pose", tt)
		}
	}
}

func TestTremorPerturbationScale(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	tr := NewTremor(rng, 0.003, 5)
	b := NewBuilder(geom.Vec3{}, 0)
	base, err := b.Hold(2).Build()
	if err != nil {
		t.Fatal(err)
	}
	shaky := &Shaky{Base: base, Tremor: tr}
	var maxOff float64
	for tt := 0.0; tt < 2; tt += 0.005 {
		off := shaky.Pose(tt).Pos.Norm()
		maxOff = math.Max(maxOff, off)
	}
	if maxOff == 0 {
		t.Fatal("tremor produced no perturbation")
	}
	if maxOff > 0.03 {
		t.Errorf("tremor peak offset %v m too large for 3 mm amplitude", maxOff)
	}
}

func TestTremorDerivativesConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	tr := NewTremor(rng, 0.004, 8)
	b := NewBuilder(geom.Vec3{}, 0)
	base, err := b.Hold(2).Build()
	if err != nil {
		t.Fatal(err)
	}
	shaky := &Shaky{Base: base, Tremor: tr}
	const h = 1e-6
	for _, tt := range []float64{0.2, 0.7, 1.4} {
		num := shaky.Pose(tt + h).Pos.Sub(shaky.Pose(tt - h).Pos).Scale(1 / (2 * h))
		ana := shaky.Pose(tt).Vel
		if num.Sub(ana).Norm() > 1e-4 {
			t.Errorf("t=%v: numeric vel %v vs analytic %v", tt, num, ana)
		}
		numA := shaky.Pose(tt + h).Vel.Sub(shaky.Pose(tt - h).Vel).Scale(1 / (2 * h))
		anaA := shaky.Pose(tt).Acc
		if numA.Sub(anaA).Norm() > 1e-2 {
			t.Errorf("t=%v: numeric acc %v vs analytic %v", tt, numA, anaA)
		}
	}
}

func TestTremorRotationWobble(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := NewTremor(rng, 0, 10)
	b := NewBuilder(geom.Vec3{}, 0)
	base, err := b.Hold(2).Build()
	if err != nil {
		t.Fatal(err)
	}
	shaky := &Shaky{Base: base, Tremor: tr}
	// Body +y direction should wobble around world +y but never flip.
	var maxDev float64
	for tt := 0.0; tt < 2; tt += 0.01 {
		y := shaky.Pose(tt).Orient.Apply(geom.Vec3{Y: 1})
		dev := math.Acos(geom.Clamp(y.Dot(geom.Vec3{Y: 1}), -1, 1))
		maxDev = math.Max(maxDev, dev)
	}
	if maxDev == 0 {
		t.Fatal("no rotational wobble")
	}
	if maxDev > geom.Radians(40) {
		t.Errorf("wobble %v deg too large for 10 deg amplitude", geom.Degrees(maxDev))
	}
}

func TestTremorDeterministicPerSeed(t *testing.T) {
	a := NewTremor(rand.New(rand.NewSource(9)), 0.003, 5)
	b := NewTremor(rand.New(rand.NewSource(9)), 0.003, 5)
	pa, _, _, ra, _ := a.offset(0.5)
	pb, _, _, rb, _ := b.offset(0.5)
	if pa != pb || ra != rb {
		t.Error("tremor must be deterministic for equal seeds")
	}
}

func TestNilTremorOffset(t *testing.T) {
	var tr *Tremor
	p, v, a, r, rr := tr.offset(1)
	if p.Norm() != 0 || v.Norm() != 0 || a.Norm() != 0 || r != 0 || rr != 0 {
		t.Error("nil tremor must be a no-op")
	}
}
