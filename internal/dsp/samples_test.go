package dsp

import (
	"encoding/binary"
	"testing"
)

// TestSamplesWindow: a window holds the samples [lo, hi) clipped to those
// held and says where it starts. Over float64 samples it is a slice of
// them and leaves the buffer alone; over PCM it is decoded into the
// buffer by PCM16, on the channel asked for, and a partial frame is no
// sample.
func TestSamplesWindow(t *testing.T) {
	x := []float64{10, 11, 12, 13, 14}
	raw := make([]byte, 4*len(x)+3)
	for i, v := range x {
		binary.LittleEndian.PutUint16(raw[4*i:], uint16(int16(v)))
		binary.LittleEndian.PutUint16(raw[4*i+2:], uint16(int16(-v)))
	}
	for _, tc := range []struct {
		name  string
		s     Samples
		want  func(v float64) float64
		first int
		pcm   bool
	}{
		{"float", FloatSamples(x, 0), func(v float64) float64 { return v }, 0, false},
		{"float from 3", FloatSamples(x, 3), func(v float64) float64 { return v }, 3, false},
		{"pcm 0", Stereo16Samples(raw, 0), func(v float64) float64 { return float64(int16(v)) / 32767 }, 0, true},
		{"pcm 1", Stereo16Samples(raw, 1), func(v float64) float64 { return float64(int16(-v)) / 32767 }, 0, true},
	} {
		if got, want := tc.s.Len(), tc.first+len(x); got != want {
			t.Fatalf("%s: Len %d, want %d", tc.name, got, want)
		}
		for _, win := range [][2]int{{-2, 100}, {tc.first + 1, tc.first + 3}, {tc.first - 1, tc.first + 2}, {tc.first + 4, tc.first + 9}, {tc.first + 5, tc.first + 7}, {-9, -2}} {
			var buf []float64
			w, from := tc.s.Window(&buf, win[0], win[1])
			lo, hi := max(win[0], tc.first), min(win[1], tc.first+len(x))
			if from != lo || len(w) != max(hi-lo, 0) {
				t.Fatalf("%s %v: window of %d from %d, want [%d, %d)", tc.name, win, len(w), from, lo, hi)
			}
			for i, v := range w {
				if want := tc.want(x[lo-tc.first+i]); v != want {
					t.Fatalf("%s %v: sample %d is %v, want %v", tc.name, win, lo+i, v, want)
				}
			}
			if len(w) > 0 && (len(buf) > 0 && &w[0] == &buf[0]) != tc.pcm {
				t.Fatalf("%s %v: decoded into the buffer: %v, want %v", tc.name, win, !tc.pcm, tc.pcm)
			}
		}
	}
}
