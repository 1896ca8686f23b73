package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"hyperear/internal/chirp"
	"hyperear/internal/dsp"
	"hyperear/internal/geom"
	"hyperear/internal/imu"
	"hyperear/internal/mic"
	"hyperear/internal/room"
	"hyperear/internal/sim"
)

// fullRateDetector is the detection rule of the full-rate matched
// filter, kept as an oracle: the monolithic correlation r and its exact
// analytic envelope at every lag, a sorted 90th-percentile
// floor, local maxima and greedy NMS on the full-rate envelope, and
// timing from r (wideband) or the envelope (narrowband) at the
// accepted peaks. It reads the production detector's template and
// settings, so the two differ only in the rule.
type fullRateDetector struct {
	det   *chirp.Detector
	src   chirp.Params
	fs    float64
	delay float64
}

func (f fullRateDetector) DetectIntoCtx(_ context.Context, dst []chirp.Detection, samples dsp.Samples, _ dsp.EnvelopePrefix, _ *chirp.DetectScratch) ([]chirp.Detection, error) {
	x := floats(samples)
	ref := f.det.Reference()
	r := dsp.CrossCorrelate(x, ref)
	// The envelope is the exact analytic one: len(ref)-1 leading and 2^16
	// trailing zeros keep the transform's circular wrap away from the
	// recording's lags (Envelope(r) itself wraps the recording's two ends
	// onto each other, a ~3e-5 error near them).
	lead := len(ref) - 1
	padded := make([]float64, lead+len(x)+1<<16)
	copy(padded[lead:], x)
	env := dsp.Envelope(dsp.CrossCorrelate(padded, ref))[lead : lead+len(x)]

	step := len(env)/4096 + 1
	var samp []float64
	for i := 0; i < len(env); i += step {
		samp = append(samp, math.Abs(env[i]))
	}
	sort.Float64s(samp)
	floor := samp[len(samp)*9/10] + 1e-30
	minSep := max(int(f.det.MinSeparation*f.fs), 1)

	type cand struct {
		idx int
		val float64
	}
	var cands []cand
	for i := 1; i < len(env)-1; i++ {
		if env[i] >= env[i-1] && env[i] > env[i+1] && env[i] > f.det.Threshold*floor {
			cands = append(cands, cand{i, env[i]})
		}
	}
	slices.SortFunc(cands, func(a, b cand) int {
		switch {
		case a.val > b.val:
			return -1
		case a.val < b.val:
			return 1
		}
		return 0
	})
	var accepted []cand
	for _, c := range cands {
		ok := true
		for _, a := range accepted {
			if d := c.idx - a.idx; d < minSep && -d < minSep {
				ok = false
				break
			}
		}
		if ok {
			accepted = append(accepted, c)
		}
	}
	slices.SortFunc(accepted, func(a, b cand) int { return a.idx - b.idx })

	carrier := (f.src.Low + f.src.High) / 2
	wideband := carrier/(f.src.High-f.src.Low) <= 2
	half := int(f.fs/carrier) + 1
	for _, c := range accepted {
		idx, off, val := c.idx, 0.0, 0.0
		if wideband {
			for i := c.idx - half; i <= c.idx+half; i++ {
				if i >= 0 && i < len(r) && r[i] > r[idx] {
					idx = i
				}
			}
			off, val = dsp.ParabolicInterp(r, idx)
		} else {
			off, val = dsp.ParabolicInterp(env, c.idx)
		}
		dst = append(dst, chirp.Detection{
			Time:     (float64(idx) + off + f.delay) / f.fs,
			Index:    idx,
			Strength: val,
			SNR:      env[c.idx] / floor,
		})
	}
	return dst, nil
}

// equivalenceScenario is one seeded session of the parent-equivalence
// matrix: the paper's noise regime (which fixes the room), distance and
// motion mode, on the audible beacon at 44.1 kHz or the inaudible one at
// 48 kHz through the S4's roll-off.
func equivalenceScenario(reg room.Regime, dist float64, mode sim.Mode, inaudible bool, seed int64) sim.Scenario {
	env := room.MeetingRoom()
	if reg == room.RegimeMallOffPeak || reg == room.RegimeMallBusy {
		env = room.MallCorridor()
	}
	phone, src := mic.GalaxyS4(), chirp.Default()
	if inaudible {
		phone, src = phone.HiResVariant(), chirp.Inaudible()
	}
	return sim.Scenario{
		Env:            env,
		Phone:          phone,
		Source:         src,
		SpeakerPos:     geom.Vec3{X: 8, Y: 6, Z: 1.2},
		SpeakerSkewPPM: 25,
		PhoneStart:     geom.Vec3{X: 8 - dist, Y: 6, Z: 1.2},
		Protocol: sim.Protocol{
			SlideDist: 0.55,
			SlideDur:  1.0,
			HoldDur:   0.45,
			Slides:    3,
			Mode:      mode,
		},
		IMU:   imu.DefaultConfig(),
		Noise: reg.Source(),
		SNRdB: reg.SNRdB(),
		Seed:  seed,
	}
}

// TestBandKernelMatchesFullRateRule runs the band-limited detector and the
// full-rate rule (fullRateDetector) over a seeded scenario matrix — the
// four noise regimes across both rooms × 1/3/5/7 m × ruler and hand on
// the audible beacon, plus the inaudible beacon — and compares every
// detection on both channels and every fix of the resulting locates.
//
//   - Wideband (audible): the same detections with equal Index, Time
//     bit-identical or one ulp apart, and bit-identical fixes. The
//     full-rate rule's lags come from an FFT and the band kernel's from
//     direct sums; their ~1e-15 relative difference almost always stays
//     below half an ulp of the timestamp in samples (measured: 1 of 2139
//     wideband times one ulp off, all 93 fixes bit-identical).
//   - Narrowband (inaudible): equal Index, and Time within 1e-11 s
//     (measured ≤ 2.4e-13 s): the full-rate envelope comes from the
//     truncated Hilbert template instead of a transform, and every
//     echo lobe near the candidate is timed, so the strongest wins as
//     it does at full rate.
//
// Detection.SNR is not compared: the band kernel reads both the floor
// and the peak on the decimated envelope, and SNR feeds no fix.
func TestBandKernelMatchesFullRateRule(t *testing.T) {
	type scen struct {
		reg       room.Regime
		dist      float64
		mode      sim.Mode
		inaudible bool
	}
	var cases []scen
	for _, reg := range []room.Regime{room.RegimeQuietRoom, room.RegimeChatting, room.RegimeMallOffPeak, room.RegimeMallBusy} {
		for _, dist := range []float64{1, 3, 5, 7} {
			for _, mode := range []sim.Mode{sim.ModeRuler, sim.ModeHand} {
				cases = append(cases, scen{reg, dist, mode, false})
			}
		}
	}
	for _, dist := range []float64{1, 3, 5} {
		cases = append(cases, scen{room.RegimeQuietRoom, dist, sim.ModeRuler, true}, scen{room.RegimeChatting, dist, sim.ModeHand, true})
	}
	if testing.Short() || raceEnabled {
		// The race detector slows rendering ~10×: keep one audible and
		// one inaudible session from each room.
		cases = []scen{cases[1], cases[29], cases[32], cases[35]}
	}
	dets, fixes, ulpOff := 0, 0, 0
	worstNarrow := 0.0
	for i, c := range cases {
		name := fmt.Sprintf("%v/%gm/%v/inaudible=%v", c.reg, c.dist, c.mode, c.inaudible)
		sc := equivalenceScenario(c.reg, c.dist, c.mode, c.inaudible, int64(900+i))
		s, err := sim.Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(sc.Source, sc.Phone.SampleRate, sc.Phone.MicSeparation)
		if c.inaudible {
			cfg.ASP.TemplateGain = sc.Phone.HFGain
		}
		loc, err := NewLocalizer(cfg)
		if err != nil {
			t.Fatal(err)
		}
		band := loc.asp.det
		full := fullRateDetector{det: band.(*chirp.Detector), src: sc.Source, fs: sc.Phone.SampleRate,
			delay: float64(cfg.ASP.FilterTaps-1) / 2}
		for ch, x := range [][]float64{s.Recording.Mic1, s.Recording.Mic2} {
			got, err := band.DetectIntoCtx(context.Background(), nil, dsp.FloatSamples(x, 0), dsp.EnvelopePrefix{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			want, _ := full.DetectIntoCtx(context.Background(), nil, dsp.FloatSamples(x, 0), dsp.EnvelopePrefix{}, nil)
			if len(got) != len(want) {
				t.Fatalf("%s mic%d: %d detections, full-rate rule %d", name, ch+1, len(got), len(want))
			}
			for k := range want {
				g, w := got[k], want[k]
				if g.Index != w.Index {
					t.Fatalf("%s mic%d det %d: index %d, full-rate %d", name, ch+1, k, g.Index, w.Index)
				}
				dt := math.Abs(g.Time - w.Time)
				if c.inaudible {
					worstNarrow = math.Max(worstNarrow, dt)
					if dt > 1e-11 {
						t.Errorf("%s mic%d det %d: time %v, full-rate %v", name, ch+1, k, g.Time, w.Time)
					}
				} else if math.Float64bits(g.Time) != math.Float64bits(w.Time) {
					ulpOff++
					if math.Nextafter(w.Time, g.Time) != g.Time {
						t.Errorf("%s mic%d det %d: time %v, full-rate %v (more than one ulp apart)", name, ch+1, k, g.Time, w.Time)
					}
				}
			}
			dets += len(got)
		}
		if c.inaudible {
			continue
		}
		gotRes, gotErr := loc.Locate2D(s.Recording, s.IMU)
		loc.asp.det = full
		wantRes, wantErr := loc.Locate2D(s.Recording, s.IMU)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: locate error %v, full-rate %v", name, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		if len(gotRes.Fixes) != len(wantRes.Fixes) {
			t.Fatalf("%s: %d fixes, full-rate %d", name, len(gotRes.Fixes), len(wantRes.Fixes))
		}
		for k, f := range wantRes.Fixes {
			g := gotRes.Fixes[k]
			if math.Float64bits(g.Pos.X) != math.Float64bits(f.Pos.X) || math.Float64bits(g.Pos.Y) != math.Float64bits(f.Pos.Y) ||
				math.Float64bits(g.L) != math.Float64bits(f.L) {
				t.Errorf("%s fix %d: %+v, full-rate %+v", name, k, g, f)
			}
		}
		if gotRes.Pos != wantRes.Pos {
			t.Errorf("%s: position %v, full-rate %v", name, gotRes.Pos, wantRes.Pos)
		}
		fixes += len(gotRes.Fixes)
	}
	t.Logf("%d scenarios: %d detections, %d fixes compared; %d wideband times one ulp off; worst narrowband |ΔTime| %.2e s",
		len(cases), dets, fixes, ulpOff, worstNarrow)
}
