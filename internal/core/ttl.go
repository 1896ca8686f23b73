package core

import (
	"errors"
	"fmt"
	"math"

	"hyperear/internal/geom"
)

// ErrNoAnchorBeacon is returned when no beacon falls inside a slide's rest
// window, so the slide cannot be used for augmented TDoA.
var ErrNoAnchorBeacon = errors.New("core: no anchor beacon near slide endpoint")

// TTLConfig holds the 2D localization parameters.
type TTLConfig struct {
	// MicSeparation is the phone's D in meters.
	MicSeparation float64
	// SpeedOfSound in m/s.
	SpeedOfSound float64
	// MaxAnchorGap is the maximum time (seconds) between a slide endpoint
	// and its anchor beacon; the phone must still be at rest when the
	// anchor beacon arrives, so this should stay below the protocol's
	// hold duration.
	MaxAnchorGap float64
	// InitialRange seeds the hyperbola solver's guess (meters).
	InitialRange float64
}

// DefaultTTLConfig returns defaults for the Galaxy S4.
func DefaultTTLConfig() TTLConfig {
	return TTLConfig{
		MicSeparation: 0.1366,
		SpeedOfSound:  geom.SpeedOfSound,
		MaxAnchorGap:  0.45,
		InitialRange:  3,
	}
}

// Validate reports configuration errors.
func (c TTLConfig) Validate() error {
	switch {
	case c.MicSeparation <= 0:
		return fmt.Errorf("core: mic separation %v <= 0", c.MicSeparation)
	case c.SpeedOfSound < 300 || c.SpeedOfSound > 400:
		return fmt.Errorf("core: sound speed %v outside [300,400]", c.SpeedOfSound)
	case c.MaxAnchorGap <= 0:
		return fmt.Errorf("core: anchor gap %v <= 0", c.MaxAnchorGap)
	case c.InitialRange <= 0:
		return fmt.Errorf("core: initial range %v <= 0", c.InitialRange)
	}
	return nil
}

// SlideFix is the 2D localization obtained from one slide. Coordinates are
// in the phone's start body frame: x toward the speaker side (the SDF
// in-direction axis), y along the slide/mic axis.
type SlideFix struct {
	// Pos is the estimated speaker position in the start body frame
	// (x = perpendicular distance from the slide line, y = along-axis).
	Pos geom.Vec2
	// L is the perpendicular distance from the slide line to the speaker
	// (the quantity of Fig. 10); in 3D sessions this is a slant distance.
	L float64
	// DPrime is the slide length used (meters, absolute).
	DPrime float64
	// N is the number of beacon periods spanned by the slide.
	N int
	// Aug1 and Aug2 are the augmented TDoAs (seconds) measured at Mic1
	// and Mic2.
	Aug1, Aug2 float64
	// CenterY is the body-frame y coordinate of the midpoint of Mic1's
	// two positions, for diagnostics.
	CenterY float64
	// Index is the movement (its index in the result's Movements) the
	// fix came from.
	Index int
}

// LocalizeSlide computes the augmented-TDoA fix for one slide.
//
// Inputs: the anchor beacons before and after the slide, the effective
// beacon period, the slide's signed body-y displacement dispY (from PDE),
// the phone's rest body-y coordinate startY before the slide (from dead
// reckoning over previous slides), and the gyro-estimated yaw deviations
// of the phone at the two anchor positions (radians, relative to the
// session-start orientation). The slide moves Mic1 from y = startY+D/2 to
// y = startY+dispY+D/2, and Mic2 likewise D lower.
//
// Rotation error correction (the Fig. 5 "Augmented TDoA with Rotation
// Error Corrected" path): a yaw deviation φ at an anchor swings Mic1 by
// -(D/2)·φ and Mic2 by +(D/2)·φ along the in-direction (body x) axis, so
// the arrival time at Mic1 is late by (D/2)·φ/S and at Mic2 early by the
// same amount. This matters because at the in-direction orientation the
// inter-mic TDoA has its *maximum* sensitivity to yaw — 1° of hand wobble
// is ≈7 µs of TDoA, which would otherwise swamp the ~0.2 mm differential
// path signal that carries range at 7 m.
//
// The returned fix solves the paper's eq. (5) and (6): one hyperbola per
// mic, with foci at that mic's two rest positions and distance difference
// S·Δt', where Δt' = t_after - t_before - n·T.
func LocalizeSlide(before, after Beacon, periodEff, dispY, startY, yawDevBefore, yawDevAfter float64, cfg TTLConfig) (SlideFix, error) {
	if err := cfg.Validate(); err != nil {
		return SlideFix{}, err
	}
	if periodEff <= 0 {
		return SlideFix{}, fmt.Errorf("core: non-positive period %v", periodEff)
	}
	n := after.Seq - before.Seq
	if n <= 0 {
		return SlideFix{}, fmt.Errorf("core: anchor beacons out of order (Δseq=%d)", n)
	}
	rot := cfg.MicSeparation / 2 / cfg.SpeedOfSound
	t1b := before.T1 - rot*yawDevBefore
	t2b := before.T2 + rot*yawDevBefore
	t1a := after.T1 - rot*yawDevAfter
	t2a := after.T2 + rot*yawDevAfter
	aug1 := t1a - t1b - float64(n)*periodEff
	aug2 := t2a - t2b - float64(n)*periodEff

	d := cfg.MicSeparation
	endY := startY + dispY
	// Rest positions of each mic along the body y axis.
	m1a, m1b := startY+d/2, endY+d/2
	m2a, m2b := startY-d/2, endY-d/2

	// Body-frame 2D: points are (x, y) with x the perpendicular axis.
	// geom.Hyperbola works on (X, Y); map body (x,y) -> (Y:=y on the
	// focus axis, X:=x off-axis) by putting foci on the hyperbola's
	// X axis. Simpler: use foci ON the geom X axis with coordinate = body
	// y, and the geom Y axis = body x. We solve in that swapped frame and
	// swap back.
	h1 := geom.Hyperbola{
		F1:    geom.Vec2{X: m1b},
		F2:    geom.Vec2{X: m1a},
		Delta: aug1 * cfg.SpeedOfSound,
	}
	h2 := geom.Hyperbola{
		F1:    geom.Vec2{X: m2b},
		F2:    geom.Vec2{X: m2a},
		Delta: aug2 * cfg.SpeedOfSound,
	}
	if !h1.Valid() || !h2.Valid() {
		return SlideFix{}, fmt.Errorf("core: augmented TDoA exceeds slide length (Δd1=%.4f Δd2=%.4f D'=%.4f): %w",
			h1.Delta, h2.Delta, dispY, geom.ErrNoIntersection)
	}
	guess := geom.Vec2{X: (m1a + m1b) / 2, Y: cfg.InitialRange}
	sol, err := geom.IntersectHyperbolas(h1, h2, guess)
	if err != nil {
		return SlideFix{}, fmt.Errorf("core: triangulation: %w", err)
	}
	// The mirrored branch (negative perpendicular coordinate) is the same
	// physical solution; SDF fixed the side, so fold onto positive x.
	perp := math.Abs(sol.Y)
	fix := SlideFix{
		Pos:     geom.Vec2{X: perp, Y: sol.X},
		L:       perp,
		DPrime:  math.Abs(dispY),
		N:       n,
		Aug1:    aug1,
		Aug2:    aug2,
		CenterY: (m1a + m1b) / 2,
	}
	return fix, nil
}

// anchorBeacons builds the two anchor observations for a slide: a virtual
// beacon averaged over every beacon in the rest window before the slide
// ([start-maxGap, start]) and one averaged over the window after
// ([end, end+maxGap]). The phone is at rest in both windows, so after
// removing the known beacon-period ramp the timestamps are repeated
// measurements of the same geometry: averaging k of them cuts the
// matched-filter timing noise by √k, which matters because the range
// information at 7 m lives in ~0.2 mm of differential path length.
func anchorBeacons(beacons []Beacon, start, end, maxGap, periodEff float64) (before, after Beacon, err error) {
	winBefore := collectWindow(beacons, start-maxGap, start)
	winAfter := collectWindow(beacons, end, end+maxGap)
	if len(winBefore) == 0 || len(winAfter) == 0 {
		return Beacon{}, Beacon{}, fmt.Errorf("%w (rest windows hold %d/%d beacons)",
			ErrNoAnchorBeacon, len(winBefore), len(winAfter))
	}
	return averageWindow(winBefore, periodEff), averageWindow(winAfter, periodEff), nil
}

// collectWindow returns beacons with T1 in [lo, hi].
func collectWindow(beacons []Beacon, lo, hi float64) []Beacon {
	var out []Beacon
	for _, b := range beacons {
		if b.T1 >= lo && b.T1 <= hi {
			out = append(out, b)
		}
	}
	return out
}

// averageWindow folds a rest window onto its last beacon: timestamps are
// shifted by the known period ramp and averaged, giving a virtual beacon
// at the last sequence number with √k-reduced timing noise.
func averageWindow(win []Beacon, periodEff float64) Beacon {
	ref := win[len(win)-1]
	var t1, t2, snr float64
	for _, b := range win {
		shift := float64(ref.Seq-b.Seq) * periodEff
		t1 += b.T1 + shift
		t2 += b.T2 + shift
		snr += b.SNR
	}
	k := float64(len(win))
	return Beacon{Seq: ref.Seq, T1: t1 / k, T2: t2 / k, SNR: snr / k}
}
