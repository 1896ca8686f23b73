package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"hyperear/internal/chirp"
	"hyperear/internal/geom"
	"hyperear/internal/imu"
	"hyperear/internal/mic"
	"hyperear/internal/room"
)

// pcmDigest is the SHA-256 of a recording's two channels, each sample
// as its little-endian float64 bits (Mic1 then Mic2).
func pcmDigest(rec *mic.Recording) string {
	h := sha256.New()
	var b [8]byte
	for _, ch := range [][]float64{rec.Mic1, rec.Mic2} {
		for _, v := range ch {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestRenderPCMPinned pins the rendered PCM of three seeded sessions bit
// for bit, so render speedups (the period reduction in chirp.Params.Eval
// and mic.Render's HF roll-off branch) cannot move a single sample. The
// Galaxy S4 has a nonzero HF roll-off, so every case runs that branch;
// together they cover both rooms, ruler and hand, white and busy-mall
// noise, and the inaudible beacon at 48 kHz.
func TestRenderPCMPinned(t *testing.T) {
	cases := []struct {
		name   string
		env    room.Environment
		phone  mic.Phone
		source chirp.Params
		mode   Mode
		noise  room.Regime
		want   string
	}{
		{"meeting-ruler", room.MeetingRoom(), mic.GalaxyS4(), chirp.Default(), ModeRuler, room.RegimeQuietRoom,
			"fda002ced9f2dda98fdc661b6c7ab74e672db28d324f62cf8a66b4babec31cba"},
		{"mall-hand", room.MallCorridor(), mic.GalaxyS4(), chirp.Default(), ModeHand, room.RegimeMallBusy,
			"81751fb854ac649f7b30e5f0f67b16142a54082deee1ce8a06b6644dd299f1c0"},
		{"inaudible-48k", room.MeetingRoom(), mic.GalaxyS4().HiResVariant(), chirp.Inaudible(), ModeRuler, room.RegimeChatting,
			"62d946cadd38f73f9abd5879691ef630a760db6084ce2913f3f62c6b818197c6"},
	}
	for i, tc := range cases {
		proto := DefaultProtocol()
		proto.Slides = 2
		proto.CalibHold = 1
		proto.Mode = tc.mode
		s, err := Run(Scenario{
			Env:            tc.env,
			Phone:          tc.phone,
			Source:         tc.source,
			SpeakerPos:     geom.Vec3{X: 8, Y: 6, Z: 1.2},
			SpeakerSkewPPM: 25,
			PhoneStart:     geom.Vec3{X: 5, Y: 5.5, Z: 1.2},
			Protocol:       proto,
			IMU:            imu.DefaultConfig(),
			Noise:          tc.noise.Source(),
			SNRdB:          tc.noise.SNRdB(),
			Seed:           int64(61 + i),
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := pcmDigest(s.Recording); got != tc.want {
			t.Errorf("%s: PCM digest %s, want %s", tc.name, got, tc.want)
		}
	}
}
