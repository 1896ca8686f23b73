// Package sessionio persists and loads HyperEar sessions: stereo
// recordings as 16-bit PCM WAV, IMU traces as CSV, and session metadata as
// JSON. This is the bridge between the simulator and real captured data —
// record a stereo WAV and a sensor log on an actual phone, and the same
// pipeline localizes it.
package sessionio

import (
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

// ReadWAV decodes a 16-bit PCM RIFF/WAVE file held whole in data into
// float channels in [-1, 1].
//
// It walks the chunks over data itself: a chunk that claims more bytes
// than follow is an error, a missing final pad byte is not, and a
// trailing partial frame is dropped. The last "fmt " and the last
// "data" chunk decide, and a "fmt " naming a channel count WriteWAV
// cannot write (0, or more than 2) is refused where it stands. The
// channels come from the sample pool: callers that are finished with
// them may hand them back via RecycleSamples (letting the GC take them
// is also fine).
//
//hyperearvet:pooled
func ReadWAV(data []byte) (rate int, channels [][]float64, err error) {
	if len(data) < 12 || string(data[0:4]) != "RIFF" || string(data[8:12]) != "WAVE" {
		return 0, nil, fmt.Errorf("sessionio: not a RIFF/WAVE file")
	}
	var nCh, bits int
	var pcm []byte
	haveData := false
	for rest := data[12:]; len(rest) >= 8; {
		id, size := string(rest[0:4]), binary.LittleEndian.Uint32(rest[4:8])
		rest = rest[8:]
		if int64(size) > int64(len(rest)) {
			return 0, nil, fmt.Errorf("sessionio: %q chunk claims %d bytes, %d follow", id, size, len(rest))
		}
		body := rest[:size]
		rest = rest[size:]
		if size%2 == 1 && len(rest) > 0 {
			rest = rest[1:] // chunks are word-aligned
		}
		switch id {
		case "fmt ":
			if size < 16 {
				return 0, nil, fmt.Errorf("sessionio: fmt chunk too short (%d bytes)", size)
			}
			if format := binary.LittleEndian.Uint16(body[0:2]); format != 1 {
				return 0, nil, fmt.Errorf("sessionio: unsupported WAV format %d (want PCM)", format)
			}
			if nCh = int(binary.LittleEndian.Uint16(body[2:4])); nCh == 0 || nCh > 2 {
				return 0, nil, fmt.Errorf("sessionio: %d channels unsupported (want 1 or 2)", nCh)
			}
			rate = int(binary.LittleEndian.Uint32(body[4:8]))
			bits = int(binary.LittleEndian.Uint16(body[14:16]))
		case "data":
			pcm, haveData = body, true
		}
	}
	switch {
	case nCh == 0 || rate == 0:
		return 0, nil, fmt.Errorf("sessionio: missing fmt chunk")
	case bits != 16:
		return 0, nil, fmt.Errorf("sessionio: %d-bit WAV unsupported (want 16)", bits)
	case !haveData:
		return 0, nil, fmt.Errorf("sessionio: missing data chunk")
	case nCh == 1:
		mono := BorrowSamples(len(pcm) / 2)
		for i := range mono {
			mono[i] = pcm16(pcm[2*i:])
		}
		return rate, [][]float64{mono}, nil
	}
	c1, c2 := DecodeStereo16(pcm)
	return rate, [][]float64{c1, c2}, nil
}

// DecodeStereo16 decodes interleaved stereo int16 little-endian PCM into
// two channels of len(raw)/4 frames borrowed from the sample pool (a
// trailing partial frame is dropped); hand them back with
// RecycleSamples. It is the one PCM decoder: a WAV upload's data chunk,
// a streamed session's chunks, its locate and its recovery all decode
// through it, so the same bytes decode to the same bits on every path.
//
//hyperearvet:pooled
func DecodeStereo16(raw []byte) (c1, c2 []float64) {
	n := len(raw) / 4
	c1, c2 = BorrowSamples(n), BorrowSamples(n)
	raw, c2 = raw[:4*n], c2[:n]
	for i := range c1 {
		f := raw[4*i : 4*i+4]
		c1[i], c2[i] = pcm16(f), pcm16(f[2:])
	}
	return c1, c2
}

// pcm16 is the sample rule: a little-endian int16 scaled by 1/32767.
func pcm16(b []byte) float64 {
	return float64(int16(binary.LittleEndian.Uint16(b))) / 32767
}

// WriteRecording saves a stereo mic.Recording as WAV.
func WriteRecording(w io.Writer, rec *mic.Recording) error {
	if rec == nil {
		return fmt.Errorf("sessionio: nil recording")
	}
	return WriteWAV(w, int(rec.Fs), rec.Mic1, rec.Mic2)
}

// ReadRecording decodes a stereo WAV held whole in data as a
// mic.Recording over pooled sample buffers (see RecycleBundle).
//
//hyperearvet:pooled
func ReadRecording(data []byte) (*mic.Recording, error) {
	rate, channels, err := ReadWAV(data)
	if err != nil {
		return nil, err
	}
	if len(channels) != 2 {
		RecycleSamples(channels...)
		return nil, fmt.Errorf("sessionio: recording needs 2 channels, got %d", len(channels))
	}
	return &mic.Recording{
		Fs:   float64(rate),
		Mic1: channels[0],
		Mic2: channels[1],
	}, nil
}
