package sessionio

import (
	"bytes"
	"encoding/json"
	"math"
	"mime/multipart"
	"strings"
	"testing"

	"hyperear/internal/mic"
)

// buildMultipart assembles a multipart body from raw part payloads; a nil
// value skips the part.
func buildMultipart(t *testing.T, parts map[string][]byte) (*multipart.Reader, string) {
	t.Helper()
	var buf bytes.Buffer
	w := multipart.NewWriter(&buf)
	for name, payload := range parts {
		fw, err := w.CreateFormFile(name, name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.Write(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return multipart.NewReader(&buf, w.Boundary()), w.FormDataContentType()
}

func testParts(t testing.TB) (wav, imuCSV []byte) {
	t.Helper()
	rec := &mic.Recording{
		Fs:   44100,
		Mic1: []float64{0.1, -0.2, 0.3},
		Mic2: []float64{-0.1, 0.2, -0.3},
	}
	var wavBuf, imuBuf bytes.Buffer
	if err := WriteRecording(&wavBuf, rec); err != nil {
		t.Fatal(err)
	}
	if err := WriteIMU(&imuBuf, makeTrace()); err != nil {
		t.Fatal(err)
	}
	return wavBuf.Bytes(), imuBuf.Bytes()
}

func TestReadBundleMultipart(t *testing.T) {
	wav, imuCSV := testParts(t)
	mr, _ := buildMultipart(t, map[string][]byte{
		PartAudio: wav,
		PartIMU:   imuCSV,
		PartMeta:  []byte(`{"phoneName":"s4","sampleRateHz":44100,"micSeparationM":0.1366}`),
	})
	b, err := ReadBundleMultipart(mr)
	if err != nil {
		t.Fatal(err)
	}
	if b.Recording.Fs != 44100 || len(b.Recording.Mic1) != 3 || b.IMU.Len() != 2 {
		t.Fatalf("decoded bundle mismatch: %+v", b)
	}
	if b.Meta.PhoneName != "s4" || b.Meta.MicSeparation != 0.1366 {
		t.Fatalf("meta mismatch: %+v", b.Meta)
	}
}

func TestReadBundleMultipartNoMeta(t *testing.T) {
	wav, imuCSV := testParts(t)
	mr, _ := buildMultipart(t, map[string][]byte{PartAudio: wav, PartIMU: imuCSV})
	b, err := ReadBundleMultipart(mr)
	if err != nil {
		t.Fatal(err)
	}
	if b.Meta != (Meta{}) {
		t.Fatalf("expected empty meta, got %+v", b.Meta)
	}
}

func TestReadBundleMultipartRejects(t *testing.T) {
	wav, imuCSV := testParts(t)
	cases := []struct {
		name  string
		parts map[string][]byte
	}{
		{"missing audio", map[string][]byte{PartIMU: imuCSV}},
		{"missing imu", map[string][]byte{PartAudio: wav}},
		{"unknown part", map[string][]byte{PartAudio: wav, PartIMU: imuCSV, "extra": {1}}},
		{"bad audio", map[string][]byte{PartAudio: []byte("not a wav"), PartIMU: imuCSV}},
		{"bad imu", map[string][]byte{PartAudio: wav, PartIMU: []byte("not,a,csv")}},
		{"bad meta json", map[string][]byte{PartAudio: wav, PartIMU: imuCSV, PartMeta: []byte("{")}},
		{"meta rate mismatch", map[string][]byte{PartAudio: wav, PartIMU: imuCSV,
			PartMeta: []byte(`{"sampleRateHz":48000}`)}},
		{"imu NaN sample", map[string][]byte{PartAudio: wav, PartIMU: []byte(
			"# fs=100\nax,ay,az,gx,gy,gz,gravx,gravy,gravz\nNaN,0,0,0,0,0,0,0,0\n")}},
	}
	for _, c := range cases {
		mr, _ := buildMultipart(t, c.parts)
		if _, err := ReadBundleMultipart(mr); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
}

func TestMetaValidateNonFinite(t *testing.T) {
	m := Meta{SampleRate: math.NaN()}
	if err := m.Validate(); err == nil {
		t.Error("NaN sample rate must be rejected")
	}
	m = Meta{ChirpHighHz: math.Inf(1)}
	if err := m.Validate(); err == nil {
		t.Error("+Inf chirp edge must be rejected")
	}
	if err := (Meta{}).Validate(); err != nil {
		t.Errorf("zero meta should validate: %v", err)
	}
	// ParseMeta applies the same gate to decoded payloads; JSON itself
	// cannot carry NaN, but an over-range literal decodes to an error long
	// before, so prove the explicit path with a direct struct.
	if _, err := ParseMeta([]byte(`{"sampleRateHz":1e999}`)); err == nil {
		t.Error("over-range sample rate literal must be rejected")
	}
}

func TestMultipartDuplicatePart(t *testing.T) {
	wav, imuCSV := testParts(t)
	var buf bytes.Buffer
	w := multipart.NewWriter(&buf)
	for _, p := range []struct {
		name    string
		payload []byte
	}{{PartAudio, wav}, {PartIMU, imuCSV}, {PartIMU, imuCSV}} {
		fw, err := w.CreateFormFile(p.name, p.name)
		if err != nil {
			t.Fatal(err)
		}
		fw.Write(p.payload)
	}
	w.Close()
	mr := multipart.NewReader(&buf, w.Boundary())
	if _, err := ReadBundleMultipart(mr); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Fatalf("duplicate part: got %v, want duplicate-part error", err)
	}
}

// FuzzParseMeta feeds arbitrary bytes to ParseMeta. It must never panic;
// on success the Meta passes Validate and survives a JSON round trip
// unchanged.
func FuzzParseMeta(f *testing.F) {
	f.Add([]byte(`{"phoneName":"galaxy-s4","micSeparationM":0.012,"sampleRateHz":44100,` +
		`"chirpLowHz":2000,"chirpHighHz":6400,"chirpDurS":0.04,"chirpPeriodS":0.2,"trueDistanceM":4,"notes":"seed"}`))
	f.Add([]byte(`{"sampleRateHz":1e999}`))
	f.Add([]byte(`{"sampleRateHz":-0}`))
	f.Add([]byte(`{"unknown":1}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		m, err := ParseMeta(raw)
		if err != nil {
			return
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("ParseMeta accepted %+v that Validate rejects: %v", m, err)
		}
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("marshal %+v: %v", m, err)
		}
		back, err := ParseMeta(enc)
		if err != nil {
			t.Fatalf("round trip of %s: %v", enc, err)
		}
		if back != m {
			t.Fatalf("round trip changed %+v to %+v", m, back)
		}
	})
}

// FuzzReadBundleMultipart feeds arbitrary multipart bodies, under a fixed
// boundary, to ReadBundleMultipart. It must never panic; on success both
// channels have the same length, the IMU trace is non-empty, and the
// meta validates and matches the WAV rate.
func FuzzReadBundleMultipart(f *testing.F) {
	const boundary = "hyperearfuzzboundary"
	wav, imuCSV := testParts(f)
	meta := []byte(`{"phoneName":"s4","sampleRateHz":44100,"micSeparationM":0.1366}`)
	body := func(parts ...[2][]byte) []byte {
		var buf bytes.Buffer
		w := multipart.NewWriter(&buf)
		if err := w.SetBoundary(boundary); err != nil {
			f.Fatal(err)
		}
		for _, p := range parts {
			fw, err := w.CreateFormFile(string(p[0]), string(p[0]))
			if err != nil {
				f.Fatal(err)
			}
			if _, err := fw.Write(p[1]); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	audio, trace := [2][]byte{[]byte(PartAudio), wav}, [2][]byte{[]byte(PartIMU), imuCSV}
	// Valid JSON padded past the cap: rejected for its size alone.
	huge := append(append([]byte(nil), meta...), bytes.Repeat([]byte(" "), maxMetaBytes+1-len(meta))...)
	f.Add(body(audio, trace, [2][]byte{[]byte(PartMeta), meta}))
	f.Add(body(audio, trace, trace))
	f.Add(body(audio, trace, [2][]byte{[]byte("extra"), {1}}))
	f.Add(body(audio, trace, [2][]byte{[]byte(PartMeta), huge}))
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadBundleMultipart(multipart.NewReader(bytes.NewReader(data), boundary))
		if err != nil {
			return
		}
		if len(b.Recording.Mic1) != len(b.Recording.Mic2) {
			t.Fatalf("channels of %d and %d samples", len(b.Recording.Mic1), len(b.Recording.Mic2))
		}
		if b.IMU.Len() == 0 {
			t.Fatal("accepted an empty IMU trace")
		}
		if err := b.Meta.Validate(); err != nil {
			t.Fatalf("accepted meta %+v: %v", b.Meta, err)
		}
		if b.Meta.SampleRate != 0 && b.Meta.SampleRate != b.Recording.Fs {
			t.Fatalf("meta rate %v, WAV rate %v", b.Meta.SampleRate, b.Recording.Fs)
		}
	})
}
