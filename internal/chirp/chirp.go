// Package chirp models HyperEar's acoustic beacon: a linear up-down chirp
// (frequency rises from Low to High, then falls back) repeated every Period
// (§IV-A; the evaluation uses a 2-6.4 kHz chirp every 200 ms). The chirp's
// sharp autocorrelation makes it detectable with a matched filter even at
// low SNR, and its band sits above human voice so the ASP band-pass rejects
// conversational noise.
//
// The source waveform is defined in continuous time so the simulator can
// evaluate it at the exact (retarded) emission time of every received
// sample — this is what makes per-sample propagation (and hence Doppler and
// sub-sample TDoA structure) physically faithful.
package chirp

import (
	"fmt"
	"math"
)

// Params describes an up-down linear chirp beacon.
type Params struct {
	// Low and High are the chirp band edges in Hz.
	Low, High float64
	// Duration is the total chirp length in seconds (half rising, half
	// falling).
	Duration float64
	// Period is the beacon repetition interval in seconds (start-to-start).
	Period float64
	// Amplitude is the source amplitude (linear, arbitrary units).
	Amplitude float64
}

// Default returns the paper's beacon: 2-6.4 kHz, 40 ms up-down chirp
// repeated every 200 ms, unit amplitude.
func Default() Params {
	return Params{Low: 2000, High: 6400, Duration: 0.04, Period: 0.2, Amplitude: 1}
}

// Inaudible returns the near-ultrasonic beacon the paper's future-work
// section proposes: an 18-21.5 kHz chirp is above most adults' hearing yet
// within a phone's 48 kHz capture band. Its 3.5 kHz bandwidth keeps the
// matched-filter main lobe nearly as sharp as the audible beacon's; the
// practical cost is the microphone's high-frequency roll-off (modeled by
// mic.Phone.HFRolloffDB), which eats into the received SNR.
func Inaudible() Params {
	return Params{Low: 18000, High: 21500, Duration: 0.04, Period: 0.2, Amplitude: 1}
}

// Validate reports whether the parameters are physically meaningful.
func (p Params) Validate() error {
	switch {
	case p.Low <= 0 || p.High <= p.Low:
		return fmt.Errorf("chirp: band [%v, %v] Hz invalid", p.Low, p.High)
	case p.Duration <= 0:
		return fmt.Errorf("chirp: duration %v s invalid", p.Duration)
	case p.Period < p.Duration:
		return fmt.Errorf("chirp: period %v s shorter than duration %v s", p.Period, p.Duration)
	case p.Amplitude <= 0:
		return fmt.Errorf("chirp: amplitude %v invalid", p.Amplitude)
	}
	return nil
}

// phase returns the chirp's instantaneous phase at time t within one chirp
// (t in [0, Duration]). The frequency ramps Low→High over the first half
// and High→Low over the second, with continuous phase at the junction.
func (p Params) phase(t float64) float64 {
	half := p.Duration / 2
	k := (p.High - p.Low) / half // Hz per second
	if t <= half {
		return 2 * math.Pi * (p.Low*t + 0.5*k*t*t)
	}
	// Phase accumulated over the rising half.
	up := p.Low*half + 0.5*k*half*half
	u := t - half
	return 2 * math.Pi * (up + p.High*u - 0.5*k*u*u)
}

// Eval returns the source waveform value at absolute time t (seconds,
// beacon clock). Beacons start at t = 0, Period, 2·Period, …; between
// chirps the source is silent. A raised-cosine edge taper (5% of the
// duration on each side) suppresses spectral splatter from the on/off
// transitions.
func (p Params) Eval(t float64) float64 {
	if t < 0 {
		return 0
	}
	within := p.Within(t)
	if within > p.Duration {
		return 0
	}
	return p.Amplitude * p.evalOne(within)
}

// Within returns the time since the start of the current beacon period,
// math.Mod(t, Period), for t ≥ 0 — bit for bit, at a fraction of fmod's
// cost. The remainder of a floating-point division is exactly
// representable, so once the quotient q is the right integer, the fused
// t − q·Period rounds to it exactly; a quotient rounded up or down by
// the division is caught by the sign check and fixed in one step.
func (p Params) Within(t float64) float64 {
	q := math.Floor(t / p.Period)
	r := math.FMA(-q, p.Period, t)
	if r < 0 {
		r = math.FMA(-(q - 1), p.Period, t)
	} else if r >= p.Period {
		r = math.FMA(-(q + 1), p.Period, t)
	}
	return r
}

// evalOne evaluates a single chirp at local time t in [0, Duration].
func (p Params) evalOne(t float64) float64 {
	taper := 0.05 * p.Duration
	env := 1.0
	if t < taper {
		env = 0.5 * (1 - math.Cos(math.Pi*t/taper))
	} else if t > p.Duration-taper {
		env = 0.5 * (1 - math.Cos(math.Pi*(p.Duration-t)/taper))
	}
	return env * math.Sin(p.phase(t))
}

// Reference returns the sampled single-chirp waveform at sampling rate fs,
// used as the matched-filter template. Length is round(Duration·fs).
func (p Params) Reference(fs float64) []float64 {
	return p.ReferenceShaped(fs, nil)
}

// ReferenceShaped samples the chirp with a frequency-dependent amplitude
// shaping applied — the matched-filter template calibrated to a
// microphone's frequency response. Near-ultrasonic beacons through a
// rolled-off capsule arrive spectrally tilted; correlating against the
// flat template biases the interpolated peak by tens of microseconds,
// while a response-matched template removes the bias (the calibration a
// real deployment would perform once per device model). A nil gain is the
// flat template.
func (p Params) ReferenceShaped(fs float64, gain func(freqHz float64) float64) []float64 {
	n := int(math.Round(p.Duration * fs))
	out := make([]float64, n)
	for i := range out {
		t := float64(i) / fs
		v := p.evalOne(t)
		if gain != nil {
			v *= gain(p.InstantFrequency(t))
		}
		out[i] = v
	}
	return out
}

// InstantFrequency returns the chirp's instantaneous frequency in Hz at
// local time t within one chirp.
func (p Params) InstantFrequency(t float64) float64 {
	half := p.Duration / 2
	k := (p.High - p.Low) / half
	if t < 0 || t > p.Duration {
		return 0
	}
	if t <= half {
		return p.Low + k*t
	}
	return p.High - k*(t-half)
}
