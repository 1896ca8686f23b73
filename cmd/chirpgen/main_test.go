package main

import (
	"os"
	"path/filepath"
	"testing"

	"hyperear/internal/sessionio"
)

func TestRunWritesPlayableWAV(t *testing.T) {
	out := filepath.Join(t.TempDir(), "beacon.wav")
	if err := run([]string{"-out", out, "-seconds", "0.5"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	rate, chans, err := sessionio.ReadWAV(data)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 44100 || len(chans) != 1 {
		t.Fatalf("rate=%d channels=%d", rate, len(chans))
	}
	if got, want := len(chans[0]), int(0.5*44100); got != want {
		t.Errorf("samples = %d, want %d", got, want)
	}
	// The first chirp occupies the first 40 ms: energy present.
	var energy float64
	for _, v := range chans[0][:1764] {
		energy += v * v
	}
	if energy < 1 {
		t.Errorf("chirp energy %v suspiciously low", energy)
	}
	// Inter-beacon silence.
	var silence float64
	for _, v := range chans[0][3000:8000] {
		silence += v * v
	}
	if silence > 0.01 {
		t.Errorf("inter-beacon energy %v, want ≈0", silence)
	}
}

func TestRunRejectsBadParams(t *testing.T) {
	out := filepath.Join(t.TempDir(), "beacon.wav")
	if err := run([]string{"-out", out, "-low", "9000", "-high", "2000"}); err == nil {
		t.Error("inverted band should error")
	}
	if err := run([]string{"-badflag"}); err == nil {
		t.Error("unknown flag should error")
	}
	// Regression: a zero, negative, or NaN sample rate used to reach the
	// WAV writer and produce a corrupt file; a sub-Nyquist rate produced
	// an aliased chirp.
	for _, rate := range []string{"0", "-44100", "NaN", "+Inf", "8000"} {
		if err := run([]string{"-out", out, "-fs", rate}); err == nil {
			t.Errorf("-fs %s should error", rate)
		}
	}
	if err := run([]string{"-out", out, "-seconds", "0"}); err == nil {
		t.Error("-seconds 0 should error")
	}
}
