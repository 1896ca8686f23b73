package mic

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"hyperear/internal/chirp"
	"hyperear/internal/dsp"
	"hyperear/internal/geom"
	"hyperear/internal/motion"
	"hyperear/internal/room"
)

// RenderConfig describes one recording session to synthesize.
type RenderConfig struct {
	// Env is the acoustic environment.
	Env room.Environment
	// Source is the beacon waveform.
	Source chirp.Params
	// SourcePos is the (static) speaker position in world coordinates.
	SourcePos geom.Vec3
	// SpeakerSkewPPM is the speaker clock error in ppm: the speaker plays
	// Source.Eval(t·(1+SpeakerSkewPPM·1e-6)). Combined with the phone's
	// SFO this produces the sampling-frequency offset the ASP stage must
	// estimate and correct.
	SpeakerSkewPPM float64
	// Phone is the recording device.
	Phone Phone
	// Traj is the phone trajectory over the session.
	Traj motion.Trajectory
	// Noise, when non-nil, adds background noise scaled so the recorded
	// chirp-to-noise ratio at the mics is SNRdB.
	Noise room.NoiseSource
	// SNRdB is the target in-recording SNR (ignored when Noise is nil).
	SNRdB float64
	// Duration of the recording in seconds; 0 uses the trajectory length.
	Duration float64
	// Seed drives all random draws (noise realizations, dither).
	Seed int64
	// DisableQuantization bypasses the 16-bit ADC model (for tests that
	// need to isolate other error sources).
	DisableQuantization bool
}

// Recording is a synthesized stereo capture plus the ground truth needed
// by experiments.
type Recording struct {
	// Fs is the nominal sample rate the recording claims (the phone's
	// SampleRate; samples were actually taken at EffectiveRate).
	Fs float64
	// Mic1 and Mic2 are the two channels.
	Mic1, Mic2 []float64
	// TrueSNRdB is the measured chirp-to-noise ratio of channel 1
	// (+Inf when no noise was added).
	TrueSNRdB float64
}

// Channels returns Mic1 and Mic2 as the detector reads them; a nil
// Recording has no samples.
func (r *Recording) Channels() [2]dsp.Samples {
	if r == nil {
		return [2]dsp.Samples{}
	}
	return [2]dsp.Samples{dsp.FloatSamples(r.Mic1, 0), dsp.FloatSamples(r.Mic2, 0)}
}

// Render synthesizes the stereo recording for cfg.
func Render(cfg RenderConfig) (*Recording, error) {
	if err := cfg.Env.Validate(); err != nil {
		return nil, fmt.Errorf("mic: render: %w", err)
	}
	if err := cfg.Source.Validate(); err != nil {
		return nil, fmt.Errorf("mic: render: %w", err)
	}
	if err := cfg.Phone.Validate(); err != nil {
		return nil, fmt.Errorf("mic: render: %w", err)
	}
	if cfg.Traj == nil {
		return nil, fmt.Errorf("mic: render: nil trajectory")
	}
	dur := cfg.Duration
	if dur == 0 {
		dur = cfg.Traj.Duration()
	}
	if dur <= 0 {
		return nil, fmt.Errorf("mic: render: non-positive duration %v", dur)
	}

	c := cfg.Env.SpeedOfSound()
	paths := cfg.Env.Paths(cfg.SourcePos)
	skew := 1 + cfg.SpeakerSkewPPM*1e-6
	n := int(dur * cfg.Phone.SampleRate)
	adcRate := cfg.Phone.EffectiveRate()

	rng := rand.New(rand.NewSource(cfg.Seed))
	clean := [2][]float64{make([]float64, n), make([]float64, n)}
	active := [2][]bool{make([]bool, n), make([]bool, n)}

	// The per-sample synthesis is pure — trajectory poses, chirp evaluation
	// and path attenuation are all analytic, and the RNG is only consulted
	// after this loop — so it splits into contiguous chunks across cores
	// without changing a single output sample. This loop dominates render
	// cost (every sample evaluates every image-source path twice).
	renderRange := func(lo, hi int) {
		for k := lo; k < hi; k++ {
			t := float64(k) / adcRate
			pose := cfg.Traj.Pose(t)
			for m := 0; m < 2; m++ {
				micPos := pose.Pos.Add(pose.Orient.Apply(cfg.Phone.MicBodyPos(m + 1)))
				var v float64
				act := false
				for _, p := range paths {
					d := p.Image.Dist(micPos)
					emit := (t - d/c) * skew
					s := cfg.Source.Eval(emit)
					if s != 0 {
						g := 1.0
						if cfg.Phone.HFRolloffDB > 0 {
							within := cfg.Source.Within(emit)
							g = cfg.Phone.HFGain(cfg.Source.InstantFrequency(within))
						}
						v += cfg.Env.Attenuation(d, p.Gain) * s * g
						if p.Bounces == 0 {
							act = true
						}
					}
				}
				clean[m][k] = v
				active[m][k] = act
			}
		}
	}
	workers := runtime.GOMAXPROCS(0)
	if n < 1<<14 {
		// Short renders are not worth the goroutine fan-out.
		workers = 1
	}
	if workers <= 1 {
		renderRange(0, n)
	} else {
		chunk := (n + workers - 1) / workers
		var wg sync.WaitGroup
		for lo := 0; lo < n; lo += chunk {
			hi := lo + chunk
			if hi > n {
				hi = n
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				renderRange(lo, hi)
			}(lo, hi)
		}
		wg.Wait()
	}

	// Measure the received chirp level on channel 1 (direct-path active
	// samples) to calibrate noise.
	sigRMS := rmsWhere(clean[0], active[0])
	trueSNR := math.Inf(1)

	out := [2][]float64{make([]float64, n), make([]float64, n)}
	copy(out[0], clean[0])
	copy(out[1], clean[1])

	if cfg.Noise != nil && sigRMS > 0 {
		noiseRMS := sigRMS / math.Pow(10, cfg.SNRdB/20)
		for m := 0; m < 2; m++ {
			nz := cfg.Noise.Generate(n, cfg.Phone.SampleRate, rng)
			for k := range out[m] {
				out[m][k] += noiseRMS * nz[k]
			}
		}
		trueSNR = cfg.SNRdB
	}

	// Microphone self noise (relative to the eventual full-scale level).
	peak := math.Max(maxAbs2(out[0]), maxAbs2(out[1]))
	if peak == 0 {
		peak = 1
	}
	if cfg.Phone.SelfNoiseRMS > 0 {
		sn := cfg.Phone.SelfNoiseRMS * peak
		for m := 0; m < 2; m++ {
			for k := range out[m] {
				out[m][k] += sn * rng.NormFloat64()
			}
		}
	}

	// ADC: normalize to half full scale (automatic gain) and quantize.
	if !cfg.DisableQuantization {
		gain := 0.5 / peak
		q := math.Exp2(float64(cfg.Phone.BitDepth - 1))
		for m := 0; m < 2; m++ {
			for k := range out[m] {
				v := out[m][k] * gain
				out[m][k] = math.Round(v*q) / q
			}
		}
	}

	return &Recording{
		Fs:        cfg.Phone.SampleRate,
		Mic1:      out[0],
		Mic2:      out[1],
		TrueSNRdB: trueSNR,
	}, nil
}

func rmsWhere(x []float64, mask []bool) float64 {
	var s float64
	var cnt int
	for i, v := range x {
		if mask[i] {
			s += v * v
			cnt++
		}
	}
	if cnt == 0 {
		return 0
	}
	return math.Sqrt(s / float64(cnt))
}

func maxAbs2(x []float64) float64 {
	var m float64
	for _, v := range x {
		if a := math.Abs(v); a > m {
			m = a
		}
	}
	return m
}
