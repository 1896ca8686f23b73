package sessionio

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"hyperear/internal/geom"
	"hyperear/internal/imu"
	"hyperear/internal/mic"
)

func TestWAVRoundTrip(t *testing.T) {
	rate := 44100
	n := 1000
	left := make([]float64, n)
	right := make([]float64, n)
	for i := range left {
		left[i] = 0.5 * math.Sin(2*math.Pi*440*float64(i)/float64(rate))
		right[i] = -0.25 * math.Cos(2*math.Pi*880*float64(i)/float64(rate))
	}
	var buf bytes.Buffer
	if err := WriteWAV(&buf, rate, left, right); err != nil {
		t.Fatal(err)
	}
	gotRate, chans, err := ReadWAV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if gotRate != rate || len(chans) != 2 {
		t.Fatalf("rate=%d channels=%d", gotRate, len(chans))
	}
	for i := range left {
		if math.Abs(chans[0][i]-left[i]) > 1.0/32767 {
			t.Fatalf("left[%d] = %v, want %v", i, chans[0][i], left[i])
		}
		if math.Abs(chans[1][i]-right[i]) > 1.0/32767 {
			t.Fatalf("right[%d] = %v, want %v", i, chans[1][i], right[i])
		}
	}
}

func TestWAVMono(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWAV(&buf, 8000, []float64{0, 0.5, -0.5}); err != nil {
		t.Fatal(err)
	}
	rate, chans, err := ReadWAV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rate != 8000 || len(chans) != 1 || len(chans[0]) != 3 {
		t.Fatalf("rate=%d chans=%d", rate, len(chans))
	}
}

func TestWAVClipsOutOfRange(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWAV(&buf, 8000, []float64{2, -3}); err != nil {
		t.Fatal(err)
	}
	_, chans, err := ReadWAV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if chans[0][0] < 0.99 || chans[0][1] > -0.99 {
		t.Errorf("clipping failed: %v", chans[0])
	}
}

func TestWriteWAVValidation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWAV(&buf, 8000); err == nil {
		t.Error("zero channels should error")
	}
	if err := WriteWAV(&buf, 8000, []float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch should error")
	}
	if err := WriteWAV(&buf, 0, []float64{1}); err == nil {
		t.Error("zero rate should error")
	}
}

func TestReadWAVRejectsGarbage(t *testing.T) {
	if _, _, err := ReadWAV(strings.NewReader("not a wav file at all")); err == nil {
		t.Error("garbage should error")
	}
	if _, _, err := ReadWAV(strings.NewReader("")); err == nil {
		t.Error("empty should error")
	}
}

func TestRecordingRoundTrip(t *testing.T) {
	rec := &mic.Recording{
		Fs:   44100,
		Mic1: []float64{0.1, -0.2, 0.3},
		Mic2: []float64{-0.1, 0.2, -0.3},
	}
	var buf bytes.Buffer
	if err := WriteRecording(&buf, rec); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRecording(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fs != rec.Fs || len(got.Mic1) != 3 || len(got.Mic2) != 3 {
		t.Fatalf("got %+v", got)
	}
	if err := WriteRecording(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil recording should error")
	}
}

func TestReadRecordingRejectsMono(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteWAV(&buf, 8000, []float64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadRecording(&buf); err == nil {
		t.Error("mono WAV should be rejected as a recording")
	}
}

func makeTrace() *imu.Trace {
	return &imu.Trace{
		Fs: 100,
		Accel: []geom.Vec3{
			{X: 0.1, Y: -0.2, Z: 9.81},
			{X: 0.3, Y: 0.4, Z: 9.79},
		},
		Gyro: []geom.Vec3{
			{X: 0.01, Y: 0, Z: -0.02},
			{X: 0, Y: 0.005, Z: 0.001},
		},
		Gravity: []geom.Vec3{
			{X: 0, Y: 0, Z: 9.80665},
			{X: 0.01, Y: 0, Z: 9.806},
		},
	}
}

func TestIMURoundTrip(t *testing.T) {
	tr := makeTrace()
	var buf bytes.Buffer
	if err := WriteIMU(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadIMU(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fs != tr.Fs || got.Len() != tr.Len() {
		t.Fatalf("fs=%v len=%d", got.Fs, got.Len())
	}
	for i := 0; i < tr.Len(); i++ {
		if got.Accel[i].Sub(tr.Accel[i]).Norm() > 1e-9 ||
			got.Gyro[i].Sub(tr.Gyro[i]).Norm() > 1e-9 ||
			got.Gravity[i].Sub(tr.Gravity[i]).Norm() > 1e-9 {
			t.Fatalf("sample %d mismatch", i)
		}
	}
}

func TestIMUValidation(t *testing.T) {
	if err := WriteIMU(&bytes.Buffer{}, nil); err == nil {
		t.Error("nil trace should error")
	}
	cases := []string{
		"",
		"no preamble\nax,ay\n",
		"# fs=abc\n" + "ax,ay,az,gx,gy,gz,gravx,gravy,gravz\n",
		"# fs=100\nwrong,header\n",
		"# fs=100\nax,ay,az,gx,gy,gz,gravx,gravy,gravz\n1,2,3\n",
		"# fs=100\nax,ay,az,gx,gy,gz,gravx,gravy,gravz\n1,2,3,4,5,6,7,8,not-a-number\n",
		"# fs=100\nax,ay,az,gx,gy,gz,gravx,gravy,gravz\n",
	}
	for i, c := range cases {
		if _, err := ReadIMU(strings.NewReader(c)); err == nil {
			t.Errorf("case %d should error", i)
		}
	}
}

func TestBundleSaveLoad(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "session1")
	b := &Bundle{
		Recording: &mic.Recording{
			Fs:   44100,
			Mic1: []float64{0.1, 0.2},
			Mic2: []float64{0.3, 0.4},
		},
		IMU: makeTrace(),
		Meta: Meta{
			PhoneName:     "galaxy-s4",
			MicSeparation: 0.1366,
			SampleRate:    44100,
			ChirpLowHz:    2000,
			ChirpHighHz:   6400,
			ChirpDurS:     0.04,
			ChirpPeriodS:  0.2,
			TrueDistanceM: 5,
		},
	}
	if err := Save(dir, b); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Meta != b.Meta {
		t.Errorf("meta = %+v, want %+v", got.Meta, b.Meta)
	}
	if got.Recording.Fs != 44100 || got.IMU.Len() != 2 {
		t.Errorf("payload mismatch: fs=%v imu=%d", got.Recording.Fs, got.IMU.Len())
	}
}

func TestBundleSaveValidation(t *testing.T) {
	if err := Save(t.TempDir(), nil); err == nil {
		t.Error("nil bundle should error")
	}
	if err := Save(t.TempDir(), &Bundle{}); err == nil {
		t.Error("empty bundle should error")
	}
}

func TestBundleLoadMissing(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing dir should error")
	}
}

func TestBundleLoadRateMismatch(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "session2")
	b := &Bundle{
		Recording: &mic.Recording{Fs: 44100, Mic1: []float64{0}, Mic2: []float64{0}},
		IMU:       makeTrace(),
		Meta:      Meta{SampleRate: 48000},
	}
	if err := Save(dir, b); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(dir); err == nil {
		t.Error("rate mismatch should error")
	}
}

// wavHeader returns a 44-byte canonical stereo 16-bit PCM header whose
// data chunk claims dataLen bytes.
func wavHeader(dataLen uint32) []byte {
	var buf bytes.Buffer
	if err := WriteWAV(&buf, 44100, []float64{}, []float64{}); err != nil {
		panic(err)
	}
	h := buf.Bytes()[:44]
	binary.LittleEndian.PutUint32(h[40:], dataLen)
	return h
}

// TestReadWAVHugeDataClaim is the regression test for header-sized
// allocation: a 44-byte stream whose data chunk claims 0xFFFFFFF0 bytes
// must fail after allocating in proportion to the bytes present, not to
// the claim (which used to request two 8 GiB channel slices) — both when
// the reader reports its remaining length and when it does not.
func TestReadWAVHugeDataClaim(t *testing.T) {
	head := wavHeader(0xFFFFFFF0)
	for _, tc := range []struct {
		name string
		r    func() io.Reader
	}{
		{"bytes.Reader", func() io.Reader { return bytes.NewReader(head) }},
		{"plain reader", func() io.Reader { return struct{ io.Reader }{bytes.NewReader(head)} }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := ReadWAV(tc.r())
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: truncated data chunk decoded without error", tc.name)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Errorf("%s: allocated %d bytes for a 44-byte stream, want < 1 MiB", tc.name, got)
		}
	}
}

// TestReadWAVGrowsWithoutLength decodes a valid multi-window stream
// through a reader that does not report its length, so the channels
// grow as data arrives, and checks it against the presized path.
func TestReadWAVGrowsWithoutLength(t *testing.T) {
	n := 100000
	a, b := make([]float64, n), make([]float64, n)
	for i := range a {
		a[i] = math.Sin(float64(i) * 0.01)
		b[i] = math.Cos(float64(i) * 0.013)
	}
	var buf bytes.Buffer
	if err := WriteWAV(&buf, 48000, a, b); err != nil {
		t.Fatal(err)
	}
	_, want, err := ReadWAV(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := ReadWAV(struct{ io.Reader }{bytes.NewReader(buf.Bytes())})
	if err != nil {
		t.Fatal(err)
	}
	for c := range want {
		if len(got[c]) != n || len(want[c]) != n {
			t.Fatalf("channel %d: %d and %d frames, want %d", c, len(got[c]), len(want[c]), n)
		}
		for i := range want[c] {
			if got[c][i] != want[c][i] {
				t.Fatalf("channel %d sample %d: %v vs %v", c, i, got[c][i], want[c][i])
			}
		}
	}
}

// TestDecodeStereo16MatchesGeneric decodes every int16 value through
// the stereo loop and the any-channel loop, both channels, and requires
// the same bits: the stereo loop is the generic rule unrolled.
func TestDecodeStereo16MatchesGeneric(t *testing.T) {
	const n = 1 << 16
	raw := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint16(raw[4*i:], uint16(i))
		binary.LittleEndian.PutUint16(raw[4*i+2:], uint16(n-1-i))
	}
	c1, c2 := make([]float64, n), make([]float64, n)
	DecodeStereo16(raw, c1, c2)
	want := [][]float64{make([]float64, n), make([]float64, n)}
	decodePCM16(raw, want, 0, n)
	for c, got := range [][]float64{c1, c2} {
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[c][i]) {
				t.Fatalf("channel %d, frame %d: stereo loop %v, generic %v", c, i, got[i], want[c][i])
			}
		}
	}
	if c1[0x7fff] != 1 || c1[0x8000] != -32768.0/32767 {
		t.Fatalf("int16 extremes decode to %v and %v", c1[0x7fff], c1[0x8000])
	}
}

// FuzzReadWAV feeds arbitrary bytes to ReadWAV. It must never panic; on
// success every channel has the same length, the decoded frames fit in
// the input (frames × channels × 2 ≤ len(input)), and every sample is a
// 16-bit value scaled by 1/32767.
func FuzzReadWAV(f *testing.F) {
	var stereo, mono bytes.Buffer
	if err := WriteWAV(&stereo, 44100, []float64{0, 0.5, -1, 1}, []float64{0.25, -0.25, 1, -1}); err != nil {
		f.Fatal(err)
	}
	if err := WriteWAV(&mono, 8000, []float64{0.1, -0.9, 0.3}); err != nil {
		f.Fatal(err)
	}
	f.Add(stereo.Bytes())
	f.Add(mono.Bytes())
	f.Add(wavHeader(0xFFFFFFF0))
	f.Add(wavHeader(200 << 20))
	f.Add([]byte("RIFF\x00\x00\x00\x00WAVE"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, chans, err := ReadWAV(bytes.NewReader(data))
		if err != nil {
			return
		}
		for c, ch := range chans {
			if len(ch) != len(chans[0]) {
				t.Fatalf("channel %d has %d frames, channel 0 %d", c, len(ch), len(chans[0]))
			}
			for i, v := range ch {
				if v < -32768.0/32767 || v > 1 {
					t.Fatalf("channel %d sample %d = %v outside ±32768/32767", c, i, v)
				}
			}
		}
		if len(chans) > 0 && len(chans[0])*len(chans)*2 > len(data) {
			t.Fatalf("%d frames × %d channels from %d input bytes", len(chans[0]), len(chans), len(data))
		}
	})
}

// FuzzReadIMU feeds arbitrary bytes to ReadIMU. It must never panic; on
// success the rate is finite and positive, the three vector series have
// the same length of at least one, and every component is finite. A
// decoded trace also round-trips: WriteIMU's %.9g rounds only once, so
// after one write-and-read round a second one changes no bit.
func FuzzReadIMU(f *testing.F) {
	rng := rand.New(rand.NewSource(7))
	tr := &imu.Trace{Fs: 100}
	vec := func() geom.Vec3 {
		return geom.Vec3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: 9.8 + rng.NormFloat64()}
	}
	for i := 0; i < 5; i++ {
		tr.Accel = append(tr.Accel, vec())
		tr.Gyro = append(tr.Gyro, vec())
		tr.Gravity = append(tr.Gravity, vec())
	}
	var buf bytes.Buffer
	if err := WriteIMU(&buf, tr); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	hdr := "# fs=100\n" + imuHeader + "\n"
	f.Add([]byte("no preamble\n" + imuHeader + "\n1,2,3,4,5,6,7,8,9\n"))
	f.Add([]byte("# fs=NaN\n" + imuHeader + "\n1,2,3,4,5,6,7,8,9\n"))
	f.Add([]byte(hdr + "1,2,3,4,5,6,7,8\n"))
	f.Add([]byte(hdr + "1,2,3,4,5,6,7,8,+Inf\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadIMU(bytes.NewReader(data))
		if err != nil {
			return
		}
		if !(tr.Fs > 0) || math.IsInf(tr.Fs, 0) {
			t.Fatalf("accepted rate %v", tr.Fs)
		}
		n := len(tr.Accel)
		if n == 0 || len(tr.Gyro) != n || len(tr.Gravity) != n {
			t.Fatalf("series lengths %d/%d/%d", n, len(tr.Gyro), len(tr.Gravity))
		}
		for i := 0; i < n; i++ {
			for _, v := range [...]geom.Vec3{tr.Accel[i], tr.Gyro[i], tr.Gravity[i]} {
				for _, c := range [...]float64{v.X, v.Y, v.Z} {
					if math.IsNaN(c) || math.IsInf(c, 0) {
						t.Fatalf("sample %d: non-finite component in %+v", i, v)
					}
				}
			}
		}
		round := func(in *imu.Trace) *imu.Trace {
			var buf bytes.Buffer
			if err := WriteIMU(&buf, in); err != nil {
				t.Fatalf("write: %v", err)
			}
			out, err := ReadIMU(&buf)
			if err != nil {
				t.Fatalf("re-read of\n%s: %v", buf.Bytes(), err)
			}
			return out
		}
		once := round(tr)
		twice := round(once)
		if math.Float64bits(twice.Fs) != math.Float64bits(once.Fs) || twice.Len() != once.Len() {
			t.Fatalf("second round: rate %v, %d samples; first %v, %d", twice.Fs, twice.Len(), once.Fs, once.Len())
		}
		same := func(a, b geom.Vec3) bool {
			return math.Float64bits(a.X) == math.Float64bits(b.X) &&
				math.Float64bits(a.Y) == math.Float64bits(b.Y) &&
				math.Float64bits(a.Z) == math.Float64bits(b.Z)
		}
		for i := 0; i < once.Len(); i++ {
			if !same(twice.Accel[i], once.Accel[i]) || !same(twice.Gyro[i], once.Gyro[i]) || !same(twice.Gravity[i], once.Gravity[i]) {
				t.Fatalf("sample %d changed in the second round", i)
			}
		}
	})
}
