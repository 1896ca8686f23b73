package experiment

import (
	"fmt"
	"math/rand"

	"hyperear/internal/core"
	"hyperear/internal/imu"
	"hyperear/internal/mic"
	"hyperear/internal/room"
	"hyperear/internal/sim"
)

// ablationSpec builds the standard ablation workload: S4 on the ruler at
// 5 m, 5×55 cm slides, quiet room.
func ablationSpec(mutate func(*trialSpec)) trialSpec {
	spec := trialSpec{
		env:      room.MeetingRoom(),
		phone:    mic.GalaxyS4(),
		distance: 5,
		phoneZ:   1.2, speakerZ: 1.2,
		noise: room.WhiteNoise{}, snrDB: 15,
		protocol: sim.Protocol{
			SlideDist: 0.55,
			SlideDur:  1.0,
			HoldDur:   0.45,
			Slides:    5,
			Mode:      sim.ModeRuler,
		},
	}
	if mutate != nil {
		mutate(&spec)
	}
	return spec
}

// runAblation evaluates one condition.
func runAblation(opt Options, label, paper string, seedOff int64, mutate func(*trialSpec)) Condition {
	errs, failed := runTrials(opt, opt.Seed+seedOff,
		func(_ int, rng *rand.Rand) (float64, error) {
			return runTrial(ablationSpec(mutate), rng)
		})
	return Condition{Label: label, Errors: errs, Failed: failed, Paper: paper}
}

// RunAblationSFO compares localization with and without SFO correction
// under a fixed 60 ppm speaker clock skew.
func RunAblationSFO(opt Options) Figure {
	fig := Figure{
		ID:    "abl-sfo",
		Title: "Ablation: SFO correction (60 ppm speaker skew, ruler @5m)",
	}
	fig.Conditions = append(fig.Conditions,
		runAblation(opt, "with SFO correction", "", 1000, func(s *trialSpec) {
			s.skewPPM = 60
		}),
		runAblation(opt, "without SFO correction", "n·δT·S error ≈ 4cm/period@60ppm", 1000, func(s *trialSpec) {
			s.skewPPM = 60
			s.pipeline = func(cfg *core.Config) { cfg.ASP.DisableSFOCorrection = true }
		}),
	)
	return fig
}

// RunAblationDrift compares the eq. (4) velocity drift correction against
// raw double integration with a strongly biased accelerometer.
func RunAblationDrift(opt Options) Figure {
	fig := Figure{
		ID:    "abl-drift",
		Title: "Ablation: zero-velocity drift correction (biased IMU, ruler @5m)",
	}
	biased := func(s *trialSpec) {
		cfg := defaultIMUWithBias(0.08)
		s.imuConfig = &cfg
		// Drift can push slide-length estimates below 50 cm; keep the
		// comparison about displacement accuracy, not the gate.
		prev := s.pipeline
		s.pipeline = func(c *core.Config) {
			if prev != nil {
				prev(c)
			}
			c.PDE.MinSlideDist = 0
		}
	}
	fig.Conditions = append(fig.Conditions,
		runAblation(opt, "with drift correction", "", 2000, biased),
		runAblation(opt, "raw double integration", "linear drift uncorrected", 2000, func(s *trialSpec) {
			biased(s)
			prev := s.pipeline
			s.pipeline = func(c *core.Config) {
				prev(c)
				c.DisableDriftCorrection = true
			}
		}),
	)
	return fig
}

// RunAblationDirection quantifies the value of the SDF stage: slides taken
// with the speaker 0°/20°/45° off the broadside in-direction orientation.
func RunAblationDirection(opt Options) Figure {
	fig := Figure{
		ID:    "abl-direction",
		Title: "Ablation: residual direction-finding error (ruler @5m)",
		Notes: []string{"in-direction operation puts the speaker in the densest hyperbola region (Fig 4a)"},
	}
	for _, deg := range []float64{0, 20, 45} {
		deg := deg
		fig.Conditions = append(fig.Conditions,
			runAblation(opt, fmt.Sprintf("yaw error %g°", deg), "", 3000+int64(deg), func(s *trialSpec) {
				s.protocol.YawErrDeg = deg
			}),
		)
	}
	return fig
}

// RunAblationAggregation sweeps the number of aggregated slides (the
// paper's full system aggregates 5).
func RunAblationAggregation(opt Options) Figure {
	fig := Figure{
		ID:    "abl-agg",
		Title: "Ablation: slides aggregated per session (ruler @5m)",
	}
	for _, n := range []int{1, 3, 5, 9} {
		n := n
		fig.Conditions = append(fig.Conditions,
			runAblation(opt, fmt.Sprintf("%d slides", n), "", 4000+int64(n), func(s *trialSpec) {
				s.protocol.Slides = n
			}),
		)
	}
	return fig
}

func defaultIMUWithBias(bias float64) imu.Config {
	cfg := imu.DefaultConfig()
	cfg.AccelBiasStd = bias
	return cfg
}
