package chirp

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

func TestNewStreamDetectorValidation(t *testing.T) {
	if _, err := NewStreamDetector(Params{}, 44100); err == nil {
		t.Error("invalid params should error")
	}
	if _, err := NewStreamDetector(Default(), 44100); err != nil {
		t.Errorf("valid config: %v", err)
	}
}

// TestStreamMatchesBatch: feeding a long signal in random chunk sizes
// must produce the same detections as the batch detector, with matching
// sub-sample timestamps.
func TestStreamMatchesBatch(t *testing.T) {
	p := Default()
	fs := 44100.0
	x := synth(p, fs, 4*int(fs), 0.0173, 0.2, 31) // 4 s, mild noise

	batchDet, err := NewDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	batch := batchDet.Detect(x)
	if len(batch) < 15 {
		t.Fatalf("batch detections = %d, want ≈20", len(batch))
	}

	stream, err := NewStreamDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(32))
	var got []Detection
	pos := 0
	for pos < len(x) {
		n := 256 + rng.Intn(20000)
		if pos+n > len(x) {
			n = len(x) - pos
		}
		got = append(got, stream.Push(x[pos:pos+n])...)
		pos += n
	}
	got = append(got, stream.Flush()...)

	if len(got) != len(batch) {
		t.Fatalf("stream found %d detections, batch %d", len(got), len(batch))
	}
	for i := range got {
		if d := math.Abs(got[i].Time - batch[i].Time); d > 2e-6 {
			t.Errorf("detection %d: stream %.7f vs batch %.7f (Δ %.2f µs)",
				i, got[i].Time, batch[i].Time, d*1e6)
		}
	}
}

// TestStreamChunkSizeInvariance: 1-sample chunks and one giant chunk give
// identical results.
func TestStreamChunkSizeInvariance(t *testing.T) {
	p := Default()
	fs := 44100.0
	x := synth(p, fs, int(fs), 0.021, 0, 33)

	run := func(chunk int) []Detection {
		s, err := NewStreamDetector(p, fs)
		if err != nil {
			t.Fatal(err)
		}
		var out []Detection
		for pos := 0; pos < len(x); pos += chunk {
			end := pos + chunk
			if end > len(x) {
				end = len(x)
			}
			out = append(out, s.Push(x[pos:end])...)
		}
		return append(out, s.Flush()...)
	}
	small := run(1000)
	big := run(len(x))
	if len(small) != len(big) {
		t.Fatalf("chunked %d vs whole %d detections", len(small), len(big))
	}
	for i := range small {
		if math.Abs(small[i].Time-big[i].Time) > 2e-6 {
			t.Errorf("detection %d differs: %.7f vs %.7f", i, small[i].Time, big[i].Time)
		}
	}
}

// placeChirp adds an amplitude-scaled copy of tpl to x starting at sample at.
func placeChirp(x, tpl []float64, at int, amp float64) {
	for i, v := range tpl {
		if at+i < len(x) {
			x[at+i] += amp * v
		}
	}
}

// TestStreamClosePairMatchesBatch is the regression test for the
// cross-block dedupe bug: a weak chirp followed 0.09 s later (inside the
// 0.1 s minimum-separation window) by a strong one. The batch detector's
// non-maximum suppression keeps only the strong chirp of each pair. The
// old stream logic — an emission horizon of just one template length and
// a single last-emission timestamp — would commit the weak chirp when a
// pair straddled a block boundary and then discard the strong one as a
// "duplicate", inverting the batch decision. Pairs are swept across many
// phases so that some pair straddles a boundary for any block layout or
// chunk size.
func TestStreamClosePairMatchesBatch(t *testing.T) {
	p := Default()
	fs := 44100.0
	tpl := p.Reference(fs)
	n := 6 * int(fs)
	x := make([]float64, n)
	gap := int(0.09 * fs) // closer than MinSeparation = Period/2 = 0.1 s
	var strongAt []int
	for start := int(0.25 * fs); start+gap+3*len(tpl) < n; start += int(0.5 * fs) {
		placeChirp(x, tpl, start, 0.4)
		placeChirp(x, tpl, start+gap, 1.0)
		strongAt = append(strongAt, start+gap)
	}
	if len(strongAt) < 10 {
		t.Fatalf("only %d pairs placed", len(strongAt))
	}

	batchDet, err := NewDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	batch := batchDet.Detect(x)
	if len(batch) != len(strongAt) {
		t.Fatalf("batch found %d detections, want %d (one per pair)", len(batch), len(strongAt))
	}
	for i, d := range batch {
		if abs(d.Index-strongAt[i]) > 2 {
			t.Fatalf("batch detection %d at sample %d, want the strong chirp at %d",
				i, d.Index, strongAt[i])
		}
	}

	for _, chunk := range []int{512, 1000, 4096} {
		s, err := NewStreamDetector(p, fs)
		if err != nil {
			t.Fatal(err)
		}
		var got []Detection
		for pos := 0; pos < n; pos += chunk {
			end := pos + chunk
			if end > n {
				end = n
			}
			got = append(got, s.Push(x[pos:end])...)
		}
		got = append(got, s.Flush()...)
		if len(got) != len(batch) {
			t.Fatalf("chunk %d: stream found %d detections, batch %d", chunk, len(got), len(batch))
		}
		for i := range got {
			if d := math.Abs(got[i].Time - batch[i].Time); d > 2e-6 {
				t.Errorf("chunk %d, detection %d: stream %.7f vs batch %.7f (the weak twin was emitted instead of the strong chirp?)",
					chunk, i, got[i].Time, batch[i].Time)
			}
		}
	}
}

// TestStreamChunkSizeInvarianceMatrix: detections must be identical for
// chunk sizes 1, 64, 4096, and one full-batch push.
func TestStreamChunkSizeInvarianceMatrix(t *testing.T) {
	p := Default()
	fs := 44100.0
	x := synth(p, fs, 2*int(fs), 0.0311, 0.1, 37)

	run := func(chunk int) []Detection {
		s, err := NewStreamDetector(p, fs)
		if err != nil {
			t.Fatal(err)
		}
		var out []Detection
		for pos := 0; pos < len(x); pos += chunk {
			end := pos + chunk
			if end > len(x) {
				end = len(x)
			}
			out = append(out, s.Push(x[pos:end])...)
		}
		return append(out, s.Flush()...)
	}
	full := run(len(x))
	if len(full) < 8 {
		t.Fatalf("full-batch push found only %d detections", len(full))
	}
	for _, chunk := range []int{1, 64, 4096} {
		got := run(chunk)
		if len(got) != len(full) {
			t.Fatalf("chunk %d: %d detections vs full-batch %d", chunk, len(got), len(full))
		}
		for i := range got {
			// Times may differ by an ulp: the absolute timestamp is
			// assembled from block-relative time plus offset, and block
			// boundaries differ between chunkings.
			if math.Abs(got[i].Time-full[i].Time) > 1e-9 || got[i].Index != full[i].Index {
				t.Errorf("chunk %d, detection %d: (%.9f, %d) vs full-batch (%.9f, %d)",
					chunk, i, got[i].Time, got[i].Index, full[i].Time, full[i].Index)
			}
		}
	}
}

// TestStreamBoundaryStraddle: place a chirp exactly across a block
// boundary and verify it is reported exactly once.
func TestStreamBoundaryStraddle(t *testing.T) {
	p := Default()
	fs := 44100.0
	s, err := NewStreamDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	// Block size is 8 template lengths; put the chirp right at it.
	blockStart := float64(s.blockSize-400) / fs
	n := 2 * s.blockSize
	x := make([]float64, n)
	for i := range x {
		x[i] = p.Eval(float64(i)/fs - blockStart)
	}
	var dets []Detection
	for pos := 0; pos < n; pos += 512 {
		end := pos + 512
		if end > n {
			end = n
		}
		dets = append(dets, s.Push(x[pos:end])...)
	}
	dets = append(dets, s.Flush()...)
	// Count detections near blockStart (there may be later beacons too
	// since Eval repeats every period).
	count := 0
	for _, d := range dets {
		if math.Abs(d.Time-blockStart) < 0.01 {
			count++
		}
	}
	if count != 1 {
		t.Errorf("straddling chirp reported %d times, want 1 (all: %v)", count, dets)
	}
}

func TestStreamFlushShortBuffer(t *testing.T) {
	s, err := NewStreamDetector(Default(), 44100)
	if err != nil {
		t.Fatal(err)
	}
	s.Push(make([]float64, 100))
	if got := s.Flush(); got != nil {
		t.Errorf("flush of sub-template buffer = %v, want nil", got)
	}
}

// chunkingRecording is the chunk-invariance fixture: 3 s of beacons in
// noise, salted with a close pair (NMS stress) and an extra off-period
// chirp.
func chunkingRecording(p Params, fs float64) []float64 {
	tpl := p.Reference(fs)
	base := synth(p, fs, 3*int(fs), 0.0191, 0.15, 41)
	placeChirp(base, tpl, int(1.23*fs), 0.5)
	placeChirp(base, tpl, int(1.27*fs), 1.0)
	placeChirp(base, tpl, int(2.51*fs), 0.8)
	return base
}

// randomChunk draws the next chunk length of TestStreamRandomChunkingFuzz:
// tiny audio-callback dribbles, callback- and block-scale chunks, and
// multi-block lumps.
func randomChunk(rng *rand.Rand, blockSize int) int {
	switch rng.Intn(4) {
	case 0:
		return 1 + rng.Intn(16)
	case 1:
		return 1 + rng.Intn(2048)
	case 2:
		return 1 + rng.Intn(8192)
	default:
		return 1 + rng.Intn(3*blockSize)
	}
}

// TestStreamRandomChunkingFuzz is the fuzz-style chunking test: many
// random chunk-size sequences (including pathological 1-sample and
// larger-than-block chunks) over signals with noise, close pairs, and
// boundary-straddling chirps must all reproduce the batch detection set.
func TestStreamRandomChunkingFuzz(t *testing.T) {
	p := Default()
	fs := 44100.0
	base := chunkingRecording(p, fs)

	batchDet, err := NewDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	batch := batchDet.Detect(base)
	if len(batch) < 10 {
		t.Fatalf("batch detections = %d, want ≥ 10", len(batch))
	}

	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		s, err := NewStreamDetector(p, fs)
		if err != nil {
			t.Fatal(err)
		}
		var got []Detection
		pos := 0
		for pos < len(base) {
			n := randomChunk(rng, s.blockSize)
			if pos+n > len(base) {
				n = len(base) - pos
			}
			got = append(got, s.Push(base[pos:pos+n])...)
			pos += n
		}
		got = append(got, s.Flush()...)

		if len(got) != len(batch) {
			t.Fatalf("trial %d: stream found %d detections, batch %d", trial, len(got), len(batch))
		}
		for i := range got {
			if d := math.Abs(got[i].Time - batch[i].Time); d > 2e-6 {
				t.Errorf("trial %d, detection %d: stream %.7f vs batch %.7f (Δ %.2f µs)",
					trial, i, got[i].Time, batch[i].Time, d*1e6)
			}
		}
	}
}

// FuzzStreamChunking is the native-fuzz form of
// TestStreamRandomChunkingFuzz. The input is a chunk-length sequence —
// little-endian uint16 pairs, each one chunk of 1 + v samples, repeated
// cyclically until the recording is consumed; an empty input pushes the
// whole recording at once. Push + Flush over the fixed recording must
// return Detect's detections: same count and Index, times within 2 µs.
// The seed corpus holds that test's 25 splits, 1-sample chunks, and the
// single whole-recording chunk.
func FuzzStreamChunking(f *testing.F) {
	p := Default()
	fs := 44100.0
	base := chunkingRecording(p, fs)
	batchDet, err := NewDetector(p, fs)
	if err != nil {
		f.Fatal(err)
	}
	batch := batchDet.Detect(base)
	if len(batch) < 10 {
		f.Fatalf("batch detections = %d, want ≥ 10", len(batch))
	}
	seedDet, err := NewStreamDetector(p, fs)
	if err != nil {
		f.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		var seed []byte
		for pos := 0; pos < len(base); {
			n := randomChunk(rng, seedDet.blockSize)
			seed = binary.LittleEndian.AppendUint16(seed, uint16(n-1))
			pos += n
		}
		f.Add(seed)
	}
	f.Add([]byte{0, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, split []byte) {
		s, err := NewStreamDetector(p, fs)
		if err != nil {
			t.Fatal(err)
		}
		chunks := len(split) / 2
		var got []Detection
		for pos, i := 0, 0; pos < len(base); i++ {
			n := len(base) - pos
			if chunks > 0 {
				n = min(n, 1+int(binary.LittleEndian.Uint16(split[2*(i%chunks):])))
			}
			got = append(got, s.Push(base[pos:pos+n])...)
			pos += n
		}
		got = append(got, s.Flush()...)
		if len(got) != len(batch) {
			t.Fatalf("stream found %d detections, batch %d", len(got), len(batch))
		}
		for i := range got {
			if got[i].Index != batch[i].Index || math.Abs(got[i].Time-batch[i].Time) > 2e-6 {
				t.Errorf("detection %d: stream (%.7f, %d) vs batch (%.7f, %d)",
					i, got[i].Time, got[i].Index, batch[i].Time, batch[i].Index)
			}
		}
	})
}

// BenchmarkStreamDetectorPush streams one minute of audio through the
// overlap-save detector in audio-callback-sized chunks; ns/op here is the
// continuous-listening cost a phone implementation pays. Compare against
// BenchmarkDetectOneSecond×60 for the batch-equivalent cost.
func BenchmarkStreamDetectorPush(b *testing.B) {
	p := Default()
	fs := 44100.0
	x := synth(p, fs, 60*int(fs), 0.0173, 0.2, 31)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewStreamDetector(p, fs)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		const chunk = 1024
		for pos := 0; pos < len(x); pos += chunk {
			end := pos + chunk
			if end > len(x) {
				end = len(x)
			}
			n += len(s.Push(x[pos:end]))
		}
		n += len(s.Flush())
		if n < 250 {
			b.Fatalf("stream found %d detections, want ≈300", n)
		}
	}
}

// TestStreamPushZeroAllocs pins Push at zero steady-state heap
// allocations once the carry buffer, correlation cache, segmented-FFT
// scratch, and emission slices have grown to working size — the
// continuous-listening contract: a phone (or a server session) streaming
// for an hour must not churn the heap per audio callback.
func TestStreamPushZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	p := Default()
	fs := 44100.0
	x := synth(p, fs, 4*int(fs), 0.0173, 0.2, 31)
	s, err := NewStreamDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	const chunk = 1024
	push := func() int {
		n := 0
		for pos := 0; pos < len(x); pos += chunk {
			end := pos + chunk
			if end > len(x) {
				end = len(x)
			}
			n += len(s.Push(x[pos:end]))
		}
		return n
	}
	// Warm-up pass grows every buffer to steady-state capacity.
	if push() == 0 {
		t.Fatal("no detections in warm-up pass")
	}
	if allocs := testing.AllocsPerRun(5, func() { push() }); allocs > 0.5 {
		t.Errorf("Push: %.2f allocs/run, want 0 in steady state", allocs)
	}
}

// TestStreamBufferedAccounting: Buffered/Consumed track the carry buffer
// and total intake across pushes (the eviction signal for a server's
// per-session memory budget).
func TestStreamBufferedAccounting(t *testing.T) {
	p := Default()
	fs := 44100.0
	stream, err := NewStreamDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	x := synth(p, fs, int(fs), 0.0131, 0.1, 3)
	pushed := 0
	for pos := 0; pos < len(x); pos += 1000 {
		end := pos + 1000
		if end > len(x) {
			end = len(x)
		}
		stream.Push(x[pos:end])
		pushed += end - pos
		if got := stream.Consumed(); got != pushed {
			t.Fatalf("consumed = %d after pushing %d", got, pushed)
		}
		if b := stream.Buffered(); b < 0 || b > pushed {
			t.Fatalf("buffered = %d outside [0,%d]", b, pushed)
		}
	}
	// The carry buffer is bounded by one block plus the tail, regardless
	// of stream length.
	if b := stream.Buffered(); b > stream.blockSize+stream.tailKeep {
		t.Fatalf("buffered %d exceeds block+tail bound %d", b, stream.blockSize+stream.tailKeep)
	}
}

// Push is PushContext without a request context.
func (s *StreamDetector) Push(chunk []float64) []Detection {
	return s.PushContext(context.Background(), chunk)
}

// Flush processes whatever remains in the buffer (end of stream) and
// returns the final detections. Like PushContext, the returned slice is
// reused by later calls. No production path flushes: a streamed session's
// locate runs the batch detector over the whole recording.
func (s *StreamDetector) Flush() []Detection {
	if len(s.buf) < len(s.det.ref) {
		return nil
	}
	s.out = s.process(true, s.out[:0])
	if len(s.out) == 0 {
		return nil
	}
	return s.out
}
