package chirp

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"testing"

	"hyperear/internal/dsp"
)

func TestNewStreamDetectorValidation(t *testing.T) {
	if _, err := NewStreamDetector(Params{}, 44100); err == nil {
		t.Error("invalid params should error")
	}
	if _, err := NewStreamDetector(Default(), 44100); err != nil {
		t.Errorf("valid config: %v", err)
	}
}

// pushChunks streams x through a fresh StreamDetector of d in chunks of
// the given sizes, cycled (nil is one whole-recording chunk), and
// returns every reported detection with the detector.
func pushChunks(d *Detector, x []float64, sizes []int) ([]Detection, *StreamDetector) {
	s := d.NewStreamDetector()
	var got []Detection
	for pos, i := 0, 0; pos < len(x); i++ {
		n := len(x) - pos
		if len(sizes) > 0 {
			n = min(n, sizes[i%len(sizes)])
		}
		got = append(got, s.Push(x[pos:pos+n])...)
		pos += n
	}
	return got, s
}

// batchFinal is the batch detector's answer over the blocks s has made
// final: Detect's pass over the whole recording, with the recording's
// floor and NMS, timing only the accepted peaks whose lag lies in those
// blocks.
func batchFinal(t *testing.T, d *Detector, x []float64, s *StreamDetector) []Detection {
	t.Helper()
	var scr DetectScratch
	env, err := d.corr.MatchedEnvelopeCtx(context.Background(), nil, dsp.FloatSamples(x, 0), dsp.EnvelopePrefix{}, &scr.seg)
	if err != nil {
		t.Fatal(err)
	}
	return d.detectCore(nil, dsp.FloatSamples(x, 0), env, 0, 0, s.next*d.corr.BlockStep(), &scr)
}

// sameAsBatch fails unless the streamed detections are the batch ones:
// same Index, and Time and Strength bit for bit. SNR is measured against
// the window's floor, so it may differ.
func sameAsBatch(t *testing.T, what string, got, want []Detection) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: stream reported %d detections, batch %d over the final blocks", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Index != w.Index || math.Float64bits(g.Time) != math.Float64bits(w.Time) ||
			math.Float64bits(g.Strength) != math.Float64bits(w.Strength) {
			t.Fatalf("%s: detection %d is %+v, batch %+v", what, i, g, w)
		}
	}
}

// TestStreamMatchesBatch: the 4 s and 60 s synth signals, streamed in
// random chunk sizes, report the batch detections over the final blocks
// bit for bit, and every block but the last m is final.
func TestStreamMatchesBatch(t *testing.T) {
	p := Default()
	fs := 44100.0
	d, err := NewDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	for _, sec := range []int{4, 60} {
		x := synth(p, fs, sec*int(fs), 0.0173, 0.2, 31)
		rng := rand.New(rand.NewSource(32))
		sizes := make([]int, 64)
		for i := range sizes {
			sizes[i] = 256 + rng.Intn(20000)
		}
		got, s := pushChunks(d, x, sizes)
		if want := s.feed.Blocks() - s.m; s.next != want || s.m != 1 {
			t.Fatalf("%d s: %d final blocks with m = %d, want %d with m = 1", sec, s.next, s.m, want)
		}
		if len(got) < 5*sec-2 {
			t.Fatalf("%d s: %d detections, want ≈%d", sec, len(got), 5*sec)
		}
		sameAsBatch(t, "synth", got, batchFinal(t, d, x, s))
	}
}

// TestStreamChunkSizeInvariance: 1000-sample chunks and one giant chunk
// report the same detections, bit for bit.
func TestStreamChunkSizeInvariance(t *testing.T) {
	p := Default()
	fs := 44100.0
	x := synth(p, fs, int(fs), 0.021, 0, 33)
	d, err := NewDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	small, _ := pushChunks(d, x, []int{1000})
	big, _ := pushChunks(d, x, nil)
	if len(big) == 0 {
		t.Fatal("no detections")
	}
	sameDetections(t, "1000 vs whole", small, big)
}

// placeChirp adds an amplitude-scaled copy of tpl to x starting at sample at.
func placeChirp(x, tpl []float64, at int, amp float64) {
	for i, v := range tpl {
		if at+i < len(x) {
			x[at+i] += amp * v
		}
	}
}

// TestStreamClosePairMatchesBatch: a weak chirp followed 0.09 s later
// (inside the 0.1 s minimum-separation window) by a strong one, swept
// across many phases so some pair straddles a block boundary. The batch
// detector's non-maximum suppression keeps only the strong chirp of each
// pair, and so must the block-final window, whatever the chunking.
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

	d, err := NewDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	batch := d.Detect(x)
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
		got, s := pushChunks(d, x, []int{chunk})
		if len(got) < len(strongAt)-1 {
			t.Fatalf("chunk %d: %d detections, want ≥ %d", chunk, len(got), len(strongAt)-1)
		}
		sameAsBatch(t, "close pairs", got, batchFinal(t, d, x, s))
	}
}

// TestStreamChunkSizeInvarianceMatrix: detections must be identical, bit
// for bit, for chunk sizes 1, 64, 4096, and one full-batch push.
func TestStreamChunkSizeInvarianceMatrix(t *testing.T) {
	p := Default()
	fs := 44100.0
	x := synth(p, fs, 2*int(fs), 0.0311, 0.1, 37)
	d, err := NewDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := pushChunks(d, x, nil)
	if len(full) < 8 {
		t.Fatalf("full-batch push found only %d detections", len(full))
	}
	for _, chunk := range []int{1, 64, 4096} {
		got, _ := pushChunks(d, x, []int{chunk})
		sameDetections(t, "chunked vs full-batch push", got, full)
	}
}

// TestStreamBoundaryStraddle: a beacon whose correlation peak lies
// within a few lags either side of a block boundary is reported exactly
// once, with the batch detector's bits — its timing reads samples on
// both sides of the boundary, some of them before the block it is
// reported from.
func TestStreamBoundaryStraddle(t *testing.T) {
	p := Default()
	fs := 44100.0
	d, err := NewDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	step := d.corr.BlockStep()
	for at := 2*step - 4; at <= 2*step+4; at++ {
		// The second beacon starts at sample at.
		x := synth(p, fs, 5*step, float64(at)/fs-p.Period, 0.1, int64(at))
		got, s := pushChunks(d, x, []int{512})
		near := 0
		for _, g := range got {
			if abs(g.Index-at) <= 2 {
				near++
			}
		}
		if near != 1 {
			t.Errorf("beacon at %d (block boundary %d): reported %d times, want once (all: %+v)", at, 2*step, near, got)
		}
		sameAsBatch(t, "boundary beacon", got, batchFinal(t, d, x, s))
	}
}

// TestStreamNoFinalBlockReportsNothing: until m blocks follow the first
// one, no block is final and nothing is reported.
func TestStreamNoFinalBlockReportsNothing(t *testing.T) {
	p := Default()
	fs := 44100.0
	d, err := NewDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	s := d.NewStreamDetector()
	c := d.corr
	x := synth(p, fs, s.m*c.BlockStep()+c.SegmentSize()-1, 0.01, 0, 5)
	if got := s.Push(x[:100]); got != nil {
		t.Errorf("100-sample push reported %v", got)
	}
	if got := s.Push(x[100:]); got != nil || s.next != 0 {
		t.Errorf("push short of block %d reported %v (%d blocks final)", s.m, got, s.next)
	}
	if got := s.Push(x[:1]); len(got) == 0 || s.next != 1 {
		t.Errorf("completing block %d reported %v (%d blocks final), want block 0's beacons", s.m, got, s.next)
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
// multi-block chunks) over a signal with noise, a close pair, and an
// off-period chirp must all report the batch detections over the final
// blocks, bit for bit.
func TestStreamRandomChunkingFuzz(t *testing.T) {
	p := Default()
	fs := 44100.0
	base := chunkingRecording(p, fs)
	d, err := NewDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	whole, s := pushChunks(d, base, nil)
	if len(whole) < 10 {
		t.Fatalf("whole-recording push reported %d detections, want ≥ 10", len(whole))
	}
	sameAsBatch(t, "whole", whole, batchFinal(t, d, base, s))

	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		var sizes []int
		for pos := 0; pos < len(base); {
			n := randomChunk(rng, d.corr.SegmentSize())
			sizes = append(sizes, n)
			pos += n
		}
		got, _ := pushChunks(d, base, sizes)
		sameDetections(t, "random chunking", got, whole)
	}
}

// FuzzStreamChunking is the native-fuzz form of
// TestStreamRandomChunkingFuzz. The input is a chunk-length sequence —
// little-endian uint16 pairs, each one chunk of 1 + v samples, repeated
// cyclically until the recording is consumed; an empty input pushes the
// whole recording at once. The streamed detections over the fixed
// recording must be the batch detections over the final blocks, Index,
// Time and Strength bit for bit. The seed corpus holds that test's 25
// splits, 1-sample chunks, and the single whole-recording chunk.
func FuzzStreamChunking(f *testing.F) {
	p := Default()
	fs := 44100.0
	base := chunkingRecording(p, fs)
	d, err := NewDetector(p, fs)
	if err != nil {
		f.Fatal(err)
	}
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))
		var seed []byte
		for pos := 0; pos < len(base); {
			n := randomChunk(rng, d.corr.SegmentSize())
			seed = binary.LittleEndian.AppendUint16(seed, uint16(n-1))
			pos += n
		}
		f.Add(seed)
	}
	f.Add([]byte{0, 0})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, split []byte) {
		var sizes []int
		for i := 0; i+1 < len(split); i += 2 {
			sizes = append(sizes, 1+int(binary.LittleEndian.Uint16(split[i:])))
		}
		got, s := pushChunks(d, base, sizes)
		if len(got) < 10 {
			t.Fatalf("stream reported %d detections, want ≥ 10", len(got))
		}
		sameAsBatch(t, "fuzzed chunking", got, batchFinal(t, d, base, s))
	})
}

// BenchmarkStreamDetectorPush streams one minute of audio through the
// block-final detector in audio-callback-sized chunks; ns/op here is the
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
		if n < 250 {
			b.Fatalf("stream found %d detections, want ≈300", n)
		}
	}
}

// TestStreamPushZeroAllocs pins Push at no steady-state heap allocation
// but the feed's one slice per complete block, once the sample buffer,
// the window and the detection scratch have grown to working size — the
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
	// One slice per block, and a little slack for the feed's block-list
	// regrowth and pooled block scratch a GC may drop.
	blocks := math.Ceil(float64(len(x)) / float64(s.det.corr.BlockStep()))
	if allocs := testing.AllocsPerRun(5, func() { push() }); allocs > blocks+1 {
		t.Errorf("Push: %.2f allocs/run, want at most the feed's %.0f block slices", allocs, blocks)
	}
}

// TestStreamBufferedAccounting: Consumed tracks the total intake, and
// Buffered — the samples held for the timing of blocks not final yet —
// stays within (m+1)·BlockStep() + SegmentSize() plus one chunk,
// regardless of stream length (the per-session memory a server
// accounts for).
func TestStreamBufferedAccounting(t *testing.T) {
	p := Default()
	fs := 44100.0
	stream, err := NewStreamDetector(p, fs)
	if err != nil {
		t.Fatal(err)
	}
	c := stream.det.corr
	const chunk = 1000
	bound := (stream.m+1)*c.BlockStep() + c.SegmentSize() + chunk
	x := synth(p, fs, 3*int(fs), 0.0131, 0.1, 3)
	pushed := 0
	for pos := 0; pos < len(x); pos += chunk {
		end := min(pos+chunk, len(x))
		stream.Push(x[pos:end])
		pushed += end - pos
		if got := stream.Consumed(); got != pushed {
			t.Fatalf("consumed = %d after pushing %d", got, pushed)
		}
		if b := stream.Buffered(); b < 0 || b > min(pushed, bound) {
			t.Fatalf("buffered = %d outside [0, %d] after %d samples", b, min(pushed, bound), pushed)
		}
	}
}

// Push is PushContext without a request context.
func (s *StreamDetector) Push(chunk []float64) []Detection {
	return s.PushContext(context.Background(), chunk)
}
