package sessionio

import (
	"bytes"
	"encoding/binary"
	"fmt"
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
	gotRate, chans, err := ReadWAV(buf.Bytes())
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
	rate, chans, err := ReadWAV(buf.Bytes())
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
	_, chans, err := ReadWAV(buf.Bytes())
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
	if _, _, err := ReadWAV([]byte("not a wav file at all")); err == nil {
		t.Error("garbage should error")
	}
	if _, _, err := ReadWAV(nil); err == nil {
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
	got, err := ReadRecording(buf.Bytes())
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
	if _, err := ReadRecording(buf.Bytes()); err == nil {
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
// allocation: a 44-byte file whose data chunk claims 0xFFFFFFF0 bytes
// must fail without allocating in proportion to the claim (which used
// to request two 8 GiB channel slices).
func TestReadWAVHugeDataClaim(t *testing.T) {
	head := wavHeader(0xFFFFFFF0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := ReadWAV(head)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("truncated data chunk decoded without error")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Errorf("allocated %d bytes for a 44-byte file, want < 1 MiB", got)
	}
}

// riffChunk frames one RIFF chunk: id, little-endian size, body, and
// the pad byte an odd size takes unless pad is false.
func riffChunk(id string, body []byte, pad bool) []byte {
	c := binary.LittleEndian.AppendUint32([]byte(id), uint32(len(body)))
	c = append(c, body...)
	if pad && len(body)%2 == 1 {
		c = append(c, 0)
	}
	return c
}

// riffFile wraps chunks in a RIFF/WAVE header.
func riffFile(chunks ...[]byte) []byte {
	body := []byte("WAVE")
	for _, c := range chunks {
		body = append(body, c...)
	}
	return append(binary.LittleEndian.AppendUint32([]byte("RIFF"), uint32(len(body))), body...)
}

// fmtBody is a 16-byte PCM "fmt " body.
func fmtBody(nCh, rate, bits int) []byte {
	b := binary.LittleEndian.AppendUint16(nil, 1)
	b = binary.LittleEndian.AppendUint16(b, uint16(nCh))
	b = binary.LittleEndian.AppendUint32(b, uint32(rate))
	b = binary.LittleEndian.AppendUint32(b, uint32(rate*nCh*bits/8))
	b = binary.LittleEndian.AppendUint16(b, uint16(nCh*bits/8))
	return binary.LittleEndian.AppendUint16(b, uint16(bits))
}

// TestReadWAVChunkRules pins the chunk walk: odd chunks are padded, a
// missing final pad byte and a partial trailing chunk header are
// tolerated, a trailing partial frame is dropped, the last "fmt " and
// the last "data" decide, and a chunk claiming more bytes than follow or
// a channel count WriteWAV cannot write is refused.
func TestReadWAVChunkRules(t *testing.T) {
	stereo, mono := fmtBody(2, 8000, 16), fmtBody(1, 8000, 16)
	// Frames (1, -1), (2, -2) as int16: 1/32767 etc. after decoding.
	frames := []byte{1, 0, 0xff, 0xff, 2, 0, 0xfe, 0xff}
	other := []byte{9, 0, 9, 0}
	for _, tc := range []struct {
		name    string
		file    []byte
		nCh     int
		samples []int16 // channel 0, then channel 1
	}{
		{"canonical", riffFile(riffChunk("fmt ", stereo, true), riffChunk("data", frames, true)), 2, []int16{1, 2, -1, -2}},
		{"odd chunk padded", riffFile(riffChunk("LIST", []byte{7, 7, 7}, true), riffChunk("fmt ", stereo, true), riffChunk("data", frames, true)), 2, []int16{1, 2, -1, -2}},
		{"partial frame, no pad byte", riffFile(riffChunk("fmt ", stereo, true), riffChunk("data", append(frames, 5), false)), 2, []int16{1, 2, -1, -2}},
		{"partial chunk header", append(riffFile(riffChunk("fmt ", stereo, true), riffChunk("data", frames, true)), 'L', 'I'), 2, []int16{1, 2, -1, -2}},
		{"data before fmt", riffFile(riffChunk("data", frames, true), riffChunk("fmt ", stereo, true)), 2, []int16{1, 2, -1, -2}},
		{"last data decides", riffFile(riffChunk("fmt ", stereo, true), riffChunk("data", other, true), riffChunk("data", frames, true)), 2, []int16{1, 2, -1, -2}},
		{"last fmt decides", riffFile(riffChunk("fmt ", stereo, true), riffChunk("data", frames, true), riffChunk("fmt ", mono, true)), 1, []int16{1, -1, 2, -2}},
		{"overlong chunk", riffFile(riffChunk("fmt ", stereo, true), riffChunk("data", frames, true))[:48], 0, nil},
		{"overlong unknown chunk", riffFile(riffChunk("fmt ", stereo, true), riffChunk("data", frames, true), riffChunk("LIST", other, true)[:10]), 0, nil},
		{"zero channels", riffFile(riffChunk("fmt ", fmtBody(0, 8000, 16), true), riffChunk("data", frames, true)), 0, nil},
		{"three channels", riffFile(riffChunk("fmt ", fmtBody(3, 8000, 16), true), riffChunk("data", frames[:6], true)), 0, nil},
		{"three channels overridden", riffFile(riffChunk("fmt ", fmtBody(3, 8000, 16), true), riffChunk("fmt ", stereo, true), riffChunk("data", frames, true)), 0, nil},
		{"8-bit", riffFile(riffChunk("fmt ", fmtBody(2, 8000, 8), true), riffChunk("data", frames, true)), 0, nil},
		{"no data", riffFile(riffChunk("fmt ", stereo, true)), 0, nil},
		{"no fmt", riffFile(riffChunk("data", frames, true)), 0, nil},
	} {
		rate, chans, err := ReadWAV(tc.file)
		if tc.nCh == 0 {
			if err == nil {
				t.Errorf("%s: decoded %d channels, want an error", tc.name, len(chans))
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if rate != 8000 || len(chans) != tc.nCh {
			t.Errorf("%s: rate %d, %d channels; want 8000, %d", tc.name, rate, len(chans), tc.nCh)
			continue
		}
		var got []int16
		for _, ch := range chans {
			for _, v := range ch {
				got = append(got, int16(math.Round(v*32767)))
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.samples) {
			t.Errorf("%s: samples %v, want %v", tc.name, got, tc.samples)
		}
	}
}

// TestDecodeStereo16MatchesGeneric decodes every int16 value on both
// channels and requires each sample to be the generic rule,
// float64(int16)/32767, bit for bit, and the mono WAV path to decode the
// same values to the same bits.
func TestDecodeStereo16MatchesGeneric(t *testing.T) {
	const n = 1 << 16
	raw := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint16(raw[4*i:], uint16(i))
		binary.LittleEndian.PutUint16(raw[4*i+2:], uint16(n-1-i))
	}
	c1, c2 := DecodeStereo16(append(raw, 1, 2, 3)) // a partial frame is dropped
	if len(c1) != n || len(c2) != n {
		t.Fatalf("%d and %d frames, want %d", len(c1), len(c2), n)
	}
	monoRaw := make([]byte, 2*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint16(monoRaw[2*i:], uint16(i))
	}
	_, mono, err := ReadWAV(riffFile(riffChunk("fmt ", fmtBody(1, 8000, 16), true), riffChunk("data", monoRaw, true)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want1 := float64(int16(uint16(i))) / 32767
		want2 := float64(int16(uint16(n-1-i))) / 32767
		if math.Float64bits(c1[i]) != math.Float64bits(want1) || math.Float64bits(c2[i]) != math.Float64bits(want2) {
			t.Fatalf("frame %d: decoded (%v, %v), rule (%v, %v)", i, c1[i], c2[i], want1, want2)
		}
		if math.Float64bits(mono[0][i]) != math.Float64bits(want1) {
			t.Fatalf("mono sample %d: %v, rule %v", i, mono[0][i], want1)
		}
	}
	if c1[0x7fff] != 1 || c1[0x8000] != -32768.0/32767 {
		t.Fatalf("int16 extremes decode to %v and %v", c1[0x7fff], c1[0x8000])
	}
}

// BenchmarkDecodeWAV is the WAV row of the stage ledger: a stereo
// 44.1 kHz WAV as long as the server benchmarks' session (the 5.9 s
// recording inside BenchmarkReadBundleMultipart's body) decoded from its
// bytes, the channels handed back to the sample pool every op.
func BenchmarkDecodeWAV(b *testing.B) {
	const frames = 260190
	m1, m2 := make([]float64, frames), make([]float64, frames)
	for i := range m1 {
		m1[i] = 0.5 * math.Sin(float64(i)*0.05)
		m2[i] = 0.5 * math.Cos(float64(i)*0.07)
	}
	var buf bytes.Buffer
	if err := WriteWAV(&buf, 44100, m1, m2); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, chans, err := ReadWAV(buf.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		RecycleSamples(chans...)
	}
}

// FuzzReadWAV feeds arbitrary bytes to ReadWAV. It must never panic; on
// success there are one or two channels of the same length, the decoded
// frames fit in the input (frames × channels × 2 ≤ len(input)), and
// every sample is a 16-bit value scaled by 1/32767.
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
		_, chans, err := ReadWAV(data)
		if err != nil {
			return
		}
		if len(chans) != 1 && len(chans) != 2 {
			t.Fatalf("%d channels decoded, WriteWAV writes 1 or 2", len(chans))
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
