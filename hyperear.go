// Package hyperear is a from-scratch reproduction of "HyperEar: Indoor
// Remote Object Finding with a Single Phone" (Zhu et al., IEEE ICDCS
// 2019) as a Go library.
//
// HyperEar localizes a small acoustic beacon (a cheap speaker attached to
// keys, a wallet, …) with a single commodity two-microphone smartphone and
// no synchronization channel. The phone is slid through the air; the slide
// virtually enlarges the microphone baseline, turning the ~35
// distinguishable TDoA hyperbolas of a 13.66 cm phone into a fine-grained
// "augmented TDoA" geometry whose resolution is set by the slide length.
// Displacement is recovered from the noisy onboard IMU with a
// zero-velocity-endpoint linear drift correction, and two slide statures
// project the speaker onto the floor map without knowing either height.
//
// Because the original system runs on phone hardware, this package pairs
// the full processing pipeline (package internal/core) with a
// physics-based simulator of everything the phone would sense: chirp
// beacons, room acoustics with multipath and the paper's four noise
// regimes, a two-microphone ADC with sampling-frequency offset and 16-bit
// quantization, a biased 100 Hz IMU, and human slide motion with hand
// tremor. The public API below exposes both sides:
//
//	scenario := hyperear.Scenario{
//	    Env:        hyperear.MeetingRoom(),
//	    Phone:      hyperear.GalaxyS4(),
//	    Source:     hyperear.DefaultBeacon(),
//	    SpeakerPos: hyperear.Vec3{X: 10, Y: 6, Z: 1.2},
//	    PhoneStart: hyperear.Vec3{X: 5, Y: 6, Z: 1.2},
//	    Protocol:   hyperear.DefaultProtocol(),
//	}
//	session, _ := hyperear.Simulate(scenario)
//	loc, _ := hyperear.NewLocalizer(scenario.Phone, scenario.Source)
//	fix, _ := loc.Locate2D(session)
//	fmt.Printf("speaker is %.2f m away\n", fix.Distance)
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-vs-measured comparison of every figure.
package hyperear

import (
	"fmt"

	"hyperear/internal/chirp"
	"hyperear/internal/core"
	"hyperear/internal/geom"
	"hyperear/internal/mic"
	"hyperear/internal/room"
	"hyperear/internal/sim"
)

// Re-exported value types. Aliases keep the internal packages as the
// single source of truth while giving users one import.
type (
	// Vec2 is a 2D point/vector in meters.
	Vec2 = geom.Vec2
	// Vec3 is a 3D point/vector in meters.
	Vec3 = geom.Vec3
	// Phone describes a two-microphone handset (geometry, ADC, clock).
	Phone = mic.Phone
	// Beacon parameterizes the speaker's up-down chirp.
	Beacon = chirp.Params
	// Environment is a simulated indoor space.
	Environment = room.Environment
	// NoiseRegime selects one of the paper's four background conditions.
	NoiseRegime = room.Regime
	// Scenario configures a simulated session.
	Scenario = sim.Scenario
	// Session is a rendered scenario (audio + IMU + ground truth).
	Session = sim.Session
	// Protocol is the user-motion script of a session.
	Protocol = sim.Protocol
)

// Device presets from the paper's evaluation (§VII-A).
var (
	// GalaxyS4 returns the Samsung Galaxy S4 profile (D = 13.66 cm).
	GalaxyS4 = mic.GalaxyS4
	// GalaxyNote3 returns the Samsung Galaxy Note3 profile (D = 15.12 cm).
	GalaxyNote3 = mic.GalaxyNote3
	// DefaultBeacon returns the paper's 2-6.4 kHz chirp played every 200 ms.
	DefaultBeacon = chirp.Default
	// InaudibleBeacon returns the 18-21.5 kHz near-ultrasonic chirp of the
	// paper's future-work section; use it with Phone.HiResVariant() (48 kHz).
	InaudibleBeacon = chirp.Inaudible
	// MeetingRoom returns the 17 m × 13 m evaluation room.
	MeetingRoom = room.MeetingRoom
	// MallCorridor returns the 95 m × 16.5 m evaluation corridor.
	MallCorridor = room.MallCorridor
	// FreeField returns an anechoic environment.
	FreeField = room.FreeField
	// DefaultProtocol returns the standard 5×55 cm slide session.
	DefaultProtocol = sim.DefaultProtocol
	// Simulate renders a scenario into a Session.
	Simulate = sim.Run
	// BroadsideYaw computes the in-direction phone yaw for a geometry.
	BroadsideYaw = sim.BroadsideYaw
)

// Noise regimes of Figure 19.
const (
	NoiseQuietRoom   = room.RegimeQuietRoom
	NoiseChatting    = room.RegimeChatting
	NoiseMallOffPeak = room.RegimeMallOffPeak
	NoiseMallBusy    = room.RegimeMallBusy
)

// Movement modes.
const (
	// ModeRuler mounts the phone on a level slide ruler (Figs. 14-16).
	ModeRuler = sim.ModeRuler
	// ModeHand is free-hand operation with tremor (Figs. 17-19).
	ModeHand = sim.ModeHand
)

// Fix2D is a 2D localization result.
type Fix2D struct {
	// Distance is the estimated perpendicular distance from the slide
	// line to the speaker in meters (the paper's L).
	Distance float64
	// Body is the speaker estimate in the phone's start body frame:
	// X toward the speaker (the in-direction axis), Y along the slide.
	Body Vec2
	// World is the estimate mapped onto the floor map using the
	// session's start pose.
	World Vec2
	// Slides is the number of slides that survived quality gating and
	// contributed to the estimate.
	Slides int
	// Movements is the total number of segmented movements the session
	// produced, accepted or not.
	Movements int
	// Diagnostics records, reason-coded, every movement that produced no
	// fix (quality-gate rejections, missing anchor beacons, failed
	// triangulations).
	Diagnostics []SlideError
}

// Fix3D is a two-stature (projected 3D) localization result.
type Fix3D struct {
	// Distance is the projected horizontal distance L* in meters.
	Distance float64
	// World is the projected speaker estimate on the floor map.
	World Vec2
	// L1, L2 are the per-stature slant distances; H the measured stature
	// change; all in meters.
	L1, L2, H float64
	// Slides counts the contributing slides across both statures.
	Slides int
	// Movements is the total number of segmented movements the session
	// produced, accepted or not.
	Movements int
	// Diagnostics records, reason-coded, every movement that produced no
	// fix (see Fix2D.Diagnostics).
	Diagnostics []SlideError
}

// SlideError is one reason-coded per-movement rejection record (see
// core.SlideError for the reason-code vocabulary).
type SlideError = core.SlideError

// Localizer runs the HyperEar pipeline on sessions.
type Localizer struct {
	inner *core.Localizer
	cfg   core.Config
}

// DefaultConfigFor returns the paper-default pipeline configuration for
// a phone and beacon — the config NewLocalizer uses — so callers can
// adjust fields (Obs, ablation switches) before building
// the Localizer with NewLocalizerConfig.
func DefaultConfigFor(phone Phone, beacon Beacon) Config {
	cfg := core.DefaultConfig(beacon, phone.SampleRate, phone.MicSeparation)
	if phone.HFRolloffDB > 0 {
		cfg.ASP.TemplateGain = phone.HFGain
	}
	return cfg
}

// NewLocalizer builds a Localizer for a phone and beacon using the
// paper's default stage parameters. On phones with a high-frequency
// roll-off, the matched-filter template is calibrated to the device's
// response, which near-ultrasonic beacons require for unbiased timing.
func NewLocalizer(phone Phone, beacon Beacon) (*Localizer, error) {
	return NewLocalizerConfig(DefaultConfigFor(phone, beacon))
}

// Config exposes the full pipeline configuration for advanced use
// (ablations, alternative gates). See core.Config for the fields.
type Config = core.Config

// NewLocalizerConfig builds a Localizer from an explicit configuration.
func NewLocalizerConfig(cfg Config) (*Localizer, error) {
	inner, err := core.NewLocalizer(cfg)
	if err != nil {
		return nil, fmt.Errorf("hyperear: %w", err)
	}
	return &Localizer{inner: inner, cfg: cfg}, nil
}

// Locate2D runs the single-stature pipeline on a session and maps the
// estimate onto the floor map using the session's start pose.
func (l *Localizer) Locate2D(s *Session) (*Fix2D, error) {
	if s == nil {
		return nil, fmt.Errorf("hyperear: nil session")
	}
	res, err := l.inner.Locate2D(s.Recording, s.IMU)
	if err != nil {
		return nil, fmt.Errorf("hyperear: %w", err)
	}
	return &Fix2D{
		Distance:    res.L,
		Body:        res.Pos,
		World:       BodyToWorld(res.Pos, s),
		Slides:      len(res.Fixes),
		Movements:   len(res.Movements),
		Diagnostics: res.Diagnostics,
	}, nil
}

// Locate3D runs the two-stature pipeline on a session.
func (l *Localizer) Locate3D(s *Session) (*Fix3D, error) {
	if s == nil {
		return nil, fmt.Errorf("hyperear: nil session")
	}
	res, err := l.inner.Locate3D(s.Recording, s.IMU)
	if err != nil {
		return nil, fmt.Errorf("hyperear: %w", err)
	}
	return &Fix3D{
		Distance:    res.ProjectedDist,
		World:       BodyToWorld(res.ProjectedPos, s),
		L1:          res.L1,
		L2:          res.L2,
		H:           res.H,
		Slides:      len(res.Fixes[0]) + len(res.Fixes[1]),
		Movements:   len(res.Movements),
		Diagnostics: res.Diagnostics,
	}, nil
}

// FixFull3D is a complete relative 3D localization (the paper's §I
// extension): unlike Fix3D it also recovers the speaker's height.
type FixFull3D struct {
	// Body is the speaker estimate in the phone's start body frame
	// (x toward the speaker, y along the horizontal slide axis, z up).
	Body Vec3
	// World is the estimate mapped to world coordinates (floor map XY
	// plus absolute height).
	World Vec3
	// Observations is the number of augmented-TDoA constraints fused.
	Observations int
	// RMSResidual is the solver's goodness of fit in meters.
	RMSResidual float64
}

// LocateFull3D runs the full-3D extension on a session whose protocol
// mixes horizontal and vertical slides (see core.LocateFull3D).
func (l *Localizer) LocateFull3D(s *Session) (*FixFull3D, error) {
	if s == nil {
		return nil, fmt.Errorf("hyperear: nil session")
	}
	res, err := l.inner.LocateFull3D(s.Recording, s.IMU)
	if err != nil {
		return nil, fmt.Errorf("hyperear: %w", err)
	}
	xy := BodyToWorld(res.Pos.XY(), s)
	return &FixFull3D{
		Body:         res.Pos,
		World:        Vec3{X: xy.X, Y: xy.Y, Z: s.Scenario.PhoneStart.Z + res.Pos.Z},
		Observations: res.Observations,
		RMSResidual:  res.RMSResidual,
	}, nil
}

// LoSAssessment re-exports the core line-of-sight assessment.
type LoSAssessment = core.LoSAssessment

// Line-of-sight verdicts (see core.LoSVerdict).
const (
	LoSLikely  = core.LoSLikely
	LoSSuspect = core.LoSSuspect
	NLoSLikely = core.NLoSLikely
)

// CheckLineOfSight runs the acoustic stage only and assesses whether the
// session's evidence is consistent with a direct speaker-to-phone path
// (the paper's §IX LoS assumption). Applications should prompt the user
// to move before trusting a fix from an NLoS-likely session.
func (l *Localizer) CheckLineOfSight(s *Session) (LoSAssessment, error) {
	if s == nil {
		return LoSAssessment{}, fmt.Errorf("hyperear: nil session")
	}
	res, err := l.inner.Preprocess(s.Recording)
	if err != nil {
		return LoSAssessment{Verdict: core.NLoSLikely,
			Reasons: []string{"acoustic preprocessing failed: " + err.Error()}}, nil
	}
	dur := float64(len(s.Recording.Mic1)) / s.Recording.Fs
	return core.AssessLoS(res, l.inner.MicSeparation(), l.inner.SpeedOfSound(), dur), nil
}

// BodyToWorld maps a start-body-frame estimate onto the floor map. The
// localizer reports positions in the frame the user *believes* they
// established during direction finding; the session's believed yaw is the
// true yaw minus the (unknown to the system) residual direction error, so
// residual yaw error shows up as localization error — exactly as it would
// on a real phone.
func BodyToWorld(body Vec2, s *Session) Vec2 {
	believedYaw := s.TrueYaw - geom.Radians(s.Scenario.Protocol.YawErrDeg)
	return s.Scenario.PhoneStart.XY().Add(body.Rotate(believedYaw))
}

// Error2D returns the planar distance between a fix and the true speaker
// position, the paper's accuracy metric.
func Error2D(world Vec2, s *Session) float64 {
	return world.Dist(s.Scenario.SpeakerPos.XY())
}
