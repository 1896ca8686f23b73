package core

import (
	"fmt"
	"math"
)

// ProjectDistanceClamped is the regularized form of the paper's eq. (7)
// the pipeline uses. Given the slant perpendicular distances l1 and l2
// measured from two slide lines that are vertically separated by h (the
// stature change), eq. (7) returns the projected horizontal distance
// L* = l1·sin β with
//
//	β = arccos((h² + l1² - l2²) / (2·h·l1)),
//
// the angle at the upper vertex of the triangle formed by the two slide
// lines and the speaker (Fig. 11). Equivalently it infers the speaker's
// vertical offset z1 below the first slide line from (L1, L2, H); because
// z1 = (H² + L1² - L2²)/(2H), errors in L1-L2 are amplified by ≈L/H (17×
// at 7 m with a 0.4 m stature change), and a few centimeters of
// slant-distance noise can imply a physically impossible multi-meter
// height difference. Indoors the phone-to-object
// height offset is bounded — people hold phones 1.0-1.5 m up and objects
// sit between the floor and head height — so the inferred z1 is clamped
// to ±maxOffset before projecting: L* = sqrt(L1² - z1²). This degrades
// gracefully exactly where eq. (7) is ill-conditioned and is identical to
// it when the data is consistent.
func ProjectDistanceClamped(l1, l2, h, maxOffset float64) (float64, error) {
	if l1 <= 0 || l2 <= 0 {
		return 0, fmt.Errorf("core: non-positive slant distances l1=%v l2=%v", l1, l2)
	}
	if h == 0 {
		return 0, fmt.Errorf("core: zero stature change")
	}
	if maxOffset <= 0 {
		maxOffset = 1.5
	}
	h = math.Abs(h)
	z1 := (h*h + l1*l1 - l2*l2) / (2 * h)
	if z1 > maxOffset {
		z1 = maxOffset
	} else if z1 < -maxOffset {
		z1 = -maxOffset
	}
	if math.Abs(z1) >= l1 {
		z1 = math.Copysign(0.99*l1, z1)
	}
	return math.Sqrt(l1*l1 - z1*z1), nil
}

// aggregate returns the median of xs (the multi-slide aggregation HyperEar
// applies before reporting a location; the median is robust to the
// occasional bad slide that survives gating).
func aggregate(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	insertionSort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// insertionSort avoids pulling package sort into the hot path for the
// short (≤ ~10 element) per-session slide lists.
func insertionSort(s []float64) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
