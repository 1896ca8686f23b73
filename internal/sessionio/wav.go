// Package sessionio persists and loads HyperEar sessions: stereo
// recordings as 16-bit PCM WAV, IMU traces as CSV, and session metadata as
// JSON. This is the bridge between the simulator and real captured data —
// record a stereo WAV and a sensor log on an actual phone, and the same
// pipeline localizes it.
package sessionio

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"hyperear/internal/mic"
)

// WriteWAV emits a stereo (or mono) 16-bit PCM RIFF/WAVE stream. Channel
// slices must be equal length; samples are clipped to [-1, 1].
func WriteWAV(w io.Writer, rate int, channels ...[]float64) error {
	if len(channels) == 0 || len(channels) > 2 {
		return fmt.Errorf("sessionio: %d channels unsupported (want 1 or 2)", len(channels))
	}
	n := len(channels[0])
	for _, ch := range channels {
		if len(ch) != n {
			return fmt.Errorf("sessionio: channel length mismatch %d vs %d", len(ch), n)
		}
	}
	if rate <= 0 {
		return fmt.Errorf("sessionio: non-positive sample rate %d", rate)
	}
	nCh := len(channels)
	dataLen := n * nCh * 2

	var header []byte
	header = append(header, "RIFF"...)
	header = binary.LittleEndian.AppendUint32(header, uint32(36+dataLen))
	header = append(header, "WAVE"...)
	header = append(header, "fmt "...)
	header = binary.LittleEndian.AppendUint32(header, 16)
	header = binary.LittleEndian.AppendUint16(header, 1) // PCM
	header = binary.LittleEndian.AppendUint16(header, uint16(nCh))
	header = binary.LittleEndian.AppendUint32(header, uint32(rate))
	header = binary.LittleEndian.AppendUint32(header, uint32(rate*nCh*2))
	header = binary.LittleEndian.AppendUint16(header, uint16(nCh*2))
	header = binary.LittleEndian.AppendUint16(header, 16)
	header = append(header, "data"...)
	header = binary.LittleEndian.AppendUint32(header, uint32(dataLen))
	if _, err := w.Write(header); err != nil {
		return fmt.Errorf("sessionio: write header: %w", err)
	}

	buf := make([]byte, dataLen)
	for i := 0; i < n; i++ {
		for c, ch := range channels {
			v := ch[i]
			if v > 1 {
				v = 1
			} else if v < -1 {
				v = -1
			}
			s := int16(math.Round(v * 32767))
			binary.LittleEndian.PutUint16(buf[(i*nCh+c)*2:], uint16(s))
		}
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("sessionio: write data: %w", err)
	}
	return nil
}

// ReadWAV parses a 16-bit PCM WAV stream into float channels in [-1, 1].
//
// The data chunk is decoded incrementally through a small pooled window
// rather than buffered whole, and the channel slices come from the
// package sample pool — callers that are finished with them may hand
// them back via RecycleSamples (letting the GC take them is also fine).
//
//hyperearvet:pooled
func ReadWAV(r io.Reader) (rate int, channels [][]float64, err error) {
	var riff [12]byte
	if _, err := io.ReadFull(r, riff[:]); err != nil {
		return 0, nil, fmt.Errorf("sessionio: read RIFF header: %w", err)
	}
	if string(riff[0:4]) != "RIFF" || string(riff[8:12]) != "WAVE" {
		return 0, nil, fmt.Errorf("sessionio: not a RIFF/WAVE stream")
	}
	var nCh, bits int
	// pending buffers a data chunk that arrives before "fmt " (the chunk
	// order is unconstrained); with the usual fmt-first layout the data
	// chunk streams straight into sample slices instead.
	var pending *bytes.Buffer
	defer func() {
		if pending != nil {
			putBuf(pending)
		}
	}()
	for {
		var chunk [8]byte
		if _, err := io.ReadFull(r, chunk[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				break
			}
			return 0, nil, fmt.Errorf("sessionio: read chunk header: %w", err)
		}
		id := string(chunk[0:4])
		size := int64(binary.LittleEndian.Uint32(chunk[4:8]))
		switch {
		case id == "fmt ":
			if size < 16 {
				return 0, nil, fmt.Errorf("sessionio: fmt chunk too short (%d bytes)", size)
			}
			var body [16]byte
			if _, err := io.ReadFull(r, body[:]); err != nil {
				return 0, nil, fmt.Errorf("sessionio: read %q chunk: %w", id, err)
			}
			if format := binary.LittleEndian.Uint16(body[0:2]); format != 1 {
				return 0, nil, fmt.Errorf("sessionio: unsupported WAV format %d (want PCM)", format)
			}
			nCh = int(binary.LittleEndian.Uint16(body[2:4]))
			rate = int(binary.LittleEndian.Uint32(body[4:8]))
			bits = int(binary.LittleEndian.Uint16(body[14:16]))
			if _, err := io.CopyN(io.Discard, r, size-16); err != nil {
				return 0, nil, fmt.Errorf("sessionio: read %q chunk: %w", id, err)
			}
		case id == "data" && nCh > 0 && bits == 16:
			// A later data chunk wins (mirroring the pre-streaming
			// behavior), so drop anything decoded or buffered already.
			RecycleSamples(channels...)
			if pending != nil {
				putBuf(pending)
				pending = nil
			}
			channels, err = readPCM16(r, size, nCh)
			if err != nil {
				return 0, nil, err
			}
		case id == "data":
			if pending == nil {
				pending = getBuf()
			}
			pending.Reset()
			if _, err := io.CopyN(pending, r, size); err != nil {
				return 0, nil, fmt.Errorf("sessionio: read %q chunk: %w", id, err)
			}
		default:
			if _, err := io.CopyN(io.Discard, r, size); err != nil {
				return 0, nil, fmt.Errorf("sessionio: read %q chunk: %w", id, err)
			}
		}
		if size%2 == 1 {
			// Chunks are word-aligned; skip the pad byte.
			var pad [1]byte
			if _, err := io.ReadFull(r, pad[:]); err != nil && err != io.EOF {
				return 0, nil, fmt.Errorf("sessionio: chunk padding: %w", err)
			}
		}
	}
	if nCh == 0 || rate == 0 {
		return 0, nil, fmt.Errorf("sessionio: missing fmt chunk")
	}
	if bits != 16 {
		return 0, nil, fmt.Errorf("sessionio: %d-bit WAV unsupported (want 16)", bits)
	}
	if pending != nil {
		RecycleSamples(channels...)
		channels, err = readPCM16(pending, int64(pending.Len()), nCh)
		if err != nil {
			return 0, nil, err
		}
	}
	if channels == nil {
		return 0, nil, fmt.Errorf("sessionio: missing data chunk")
	}
	return rate, channels, nil
}

// readPCM16 stream-decodes size bytes of interleaved 16-bit PCM into
// nCh pooled channel slices, reading through a fixed pooled window so
// the raw bytes are never buffered whole. Trailing bytes that do not
// fill a frame are discarded, matching the buffered decoder's n =
// len(data)/frame truncation.
//
// The channels are sized from the bytes actually present, never from
// the header's claim alone: a reader that reports its remaining length
// (the multipart path's *bytes.Reader) caps the claim, and any other
// reader starts at one window of frames and grows as data arrives. A
// 44-byte stream claiming a 4 GiB data chunk therefore fails with EOF
// after allocating one window, not gigabytes.
//
//hyperearvet:pooled
func readPCM16(r io.Reader, size int64, nCh int) ([][]float64, error) {
	frame := int64(nCh * 2)
	n := int(size / frame)
	wp := pcmScratchPool.Get().(*[]byte)
	defer pcmScratchPool.Put(wp)
	// Whole frames per window read: channel counts whose frame exceeds
	// the window cannot be decoded through it.
	step := int64(len(*wp)) / frame * frame
	if step == 0 {
		return nil, fmt.Errorf("sessionio: %d-channel frames exceed the %d-byte decode window", nCh, len(*wp))
	}
	win := (*wp)[:step]
	pre := min(n, len(win)/int(frame))
	if l, ok := r.(interface{ Len() int }); ok {
		pre = min(n, l.Len()/int(frame))
	}
	channels := make([][]float64, nCh)
	for c := range channels {
		// The container is this pooled function's own return value:
		// ownership of the borrowed slices transfers to the caller, who
		// hands them back via RecycleSamples (or lets the GC take them).
		//hyperearvet:allow poolleak borrowed slices are the pooled return value; RecycleSamples is the give-back
		channels[c] = BorrowSamples(pre)
	}
	done := 0
	for rem := int64(n) * frame; rem > 0; {
		want := int64(len(win))
		if want > rem {
			want = rem
		}
		// len(win) and rem are both frame multiples, so each read holds
		// whole frames only.
		if _, err := io.ReadFull(r, win[:want]); err != nil {
			RecycleSamples(channels...)
			return nil, fmt.Errorf("sessionio: read \"data\" chunk: %w", err)
		}
		frames := int(want / frame)
		if need := done + frames; need > len(channels[0]) {
			for c, ch := range channels {
				//hyperearvet:allow poolleak the grown slice replaces ch in the pooled return value
				channels[c] = growSamples(ch, done, min(max(2*len(ch), need), n))
			}
		}
		if nCh == 2 {
			DecodeStereo16(win[:want], channels[0][done:done+frames], channels[1][done:done+frames])
		} else {
			decodePCM16(win[:want], channels, done, frames)
		}
		done += frames
		rem -= want
	}
	if tail := size - int64(n)*frame; tail > 0 {
		if _, err := io.CopyN(io.Discard, r, tail); err != nil {
			RecycleSamples(channels...)
			return nil, fmt.Errorf("sessionio: read \"data\" chunk: %w", err)
		}
	}
	return channels, nil
}

// DecodeStereo16 decodes interleaved stereo int16 little-endian PCM into
// two channels, len(c1) frames: every sample is int16/32767, so a WAV
// upload and the same bytes streamed to a session decode to the same
// bits.
func DecodeStereo16(raw []byte, c1, c2 []float64) {
	raw, c2 = raw[:4*len(c1)], c2[:len(c1)]
	for i := range c1 {
		f := raw[4*i : 4*i+4]
		c1[i] = float64(int16(binary.LittleEndian.Uint16(f))) / 32767
		c2[i] = float64(int16(binary.LittleEndian.Uint16(f[2:]))) / 32767
	}
}

// decodePCM16 is DecodeStereo16 for any channel count: frames frames of
// interleaved int16 PCM into channels[c][at:], with the same rule.
func decodePCM16(raw []byte, channels [][]float64, at, frames int) {
	nCh := len(channels)
	for i := 0; i < frames; i++ {
		for c := 0; c < nCh; c++ {
			v := int16(binary.LittleEndian.Uint16(raw[(i*nCh+c)*2:]))
			channels[c][at+i] = float64(v) / 32767
		}
	}
}

// growSamples returns a pooled slice of length n holding s[:keep], and
// hands s back to the pool.
//
//hyperearvet:pooled
func growSamples(s []float64, keep, n int) []float64 {
	g := BorrowSamples(n)
	copy(g, s[:keep])
	RecycleSamples(s)
	return g
}

// WriteRecording saves a stereo mic.Recording as WAV.
func WriteRecording(w io.Writer, rec *mic.Recording) error {
	if rec == nil {
		return fmt.Errorf("sessionio: nil recording")
	}
	return WriteWAV(w, int(rec.Fs), rec.Mic1, rec.Mic2)
}

// ReadRecording loads a stereo WAV as a mic.Recording.
func ReadRecording(r io.Reader) (*mic.Recording, error) {
	rate, channels, err := ReadWAV(r)
	if err != nil {
		return nil, err
	}
	if len(channels) != 2 {
		return nil, fmt.Errorf("sessionio: recording needs 2 channels, got %d", len(channels))
	}
	return &mic.Recording{
		Fs:   float64(rate),
		Mic1: channels[0],
		Mic2: channels[1],
	}, nil
}
