package sessionio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"mime/multipart"
)

// Form-part names of a multipart localization upload (the wire mirror of
// the on-disk bundle layout: audio.wav, imu.csv, meta.json).
const (
	PartAudio = "audio"
	PartIMU   = "imu"
	PartMeta  = "meta"
)

// maxMetaBytes bounds the meta.json part of an upload. Meta is a dozen
// scalars; a megabyte is already three orders of magnitude of headroom,
// and the cap keeps a hostile part from ballooning the decoder.
const maxMetaBytes = 1 << 20

// Validate rejects non-finite Meta fields. JSON cannot encode NaN or
// ±Inf directly, but meta also arrives from hand-written sidecar files
// and future transports; NaN fails every ordered comparison, so a
// poisoned sample rate or chirp edge would sail through range gates
// downstream — reject at ingestion per the floatguard contract.
func (m Meta) Validate() error {
	fields := [...]struct {
		name string
		v    float64
	}{
		{"micSeparationM", m.MicSeparation},
		{"sampleRateHz", m.SampleRate},
		{"chirpLowHz", m.ChirpLowHz},
		{"chirpHighHz", m.ChirpHighHz},
		{"chirpDurS", m.ChirpDurS},
		{"chirpPeriodS", m.ChirpPeriodS},
		{"trueDistanceM", m.TrueDistanceM},
	}
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("sessionio: meta field %s is non-finite (%v)", f.name, f.v)
		}
	}
	return nil
}

// ParseMeta decodes a meta.json payload, rejecting unknown fields (a
// mistyped key would otherwise select the server defaults silently),
// trailing data and non-finite values. An empty payload is the zero Meta.
func ParseMeta(raw []byte) (Meta, error) {
	var meta Meta
	if len(raw) == 0 {
		return meta, nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&meta); err != nil {
		return Meta{}, fmt.Errorf("sessionio: parse meta: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Meta{}, fmt.Errorf("sessionio: parse meta: data after the JSON value")
	}
	if err := meta.Validate(); err != nil {
		return Meta{}, err
	}
	return meta, nil
}

// ReadBundleParts assembles a Bundle from its three parts' bytes: the
// WAV, the IMU CSV and the optional meta.json (empty for a zero Meta).
// Disk bundles (Load) and uploads (ReadBundleMultipart) both come through
// it. The WAV header states the recording's rate: a meta that omits
// sampleRateHz takes it, and one that states it must agree. The
// recording's channels come from the sample pool (see RecycleBundle).
//
//hyperearvet:pooled
func ReadBundleParts(audio, imuCSV, metaJSON []byte) (*Bundle, error) {
	meta, err := ParseMeta(metaJSON)
	if err != nil {
		return nil, err
	}
	tr, err := ReadIMU(bytes.NewReader(imuCSV))
	if err != nil {
		return nil, err
	}
	rec, err := ReadRecording(audio)
	if err != nil {
		return nil, err
	}
	if meta.SampleRate == 0 {
		meta.SampleRate = rec.Fs
	}
	// The WAV header rate is an integer, so a mismatch is exact, never a
	// rounding artifact.
	//hyperearvet:allow floatguard exact compare of an integral WAV header rate against its own meta echo
	if meta.SampleRate != rec.Fs {
		RecycleSamples(rec.Mic1, rec.Mic2)
		return nil, fmt.Errorf("sessionio: meta sample rate %v != WAV rate %v", meta.SampleRate, rec.Fs)
	}
	return &Bundle{Recording: rec, IMU: tr, Meta: meta}, nil
}

// ReadBundleMultipart reads a session bundle from a multipart body with
// parts named "audio" (WAV), "imu" (CSV), and optionally "meta" (JSON) —
// the upload format of the localization service's POST /v1/locate. Parts
// may arrive in any order; unknown part names are rejected so a typoed
// field name fails loudly instead of localizing without its IMU trace.
// The bundle aliases nothing from the upload bytes (the decoders copy
// into their own structures), so the part bodies live in pooled buffers
// released before returning; the recording's sample slices come from the
// sample pool (see RecycleBundle).
//
//hyperearvet:pooled
func ReadBundleMultipart(mr *multipart.Reader) (*Bundle, error) {
	audio, imuCSV := BorrowBuffer(), BorrowBuffer()
	defer RecycleBuffer(audio)
	defer RecycleBuffer(imuCSV)
	var haveAudio, haveIMU bool
	var metaJSON []byte
	seen := map[string]bool{}
	for {
		part, err := mr.NextPart()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("sessionio: multipart: %w", err)
		}
		name := part.FormName()
		if seen[name] {
			part.Close()
			return nil, fmt.Errorf("sessionio: duplicate part %q", name)
		}
		seen[name] = true
		switch name {
		case PartAudio:
			_, err = audio.ReadFrom(part)
			haveAudio = true
		case PartIMU:
			_, err = imuCSV.ReadFrom(part)
			haveIMU = true
		case PartMeta:
			metaJSON, err = io.ReadAll(io.LimitReader(part, maxMetaBytes+1))
			if err == nil && len(metaJSON) > maxMetaBytes {
				err = fmt.Errorf("meta part exceeds %d bytes", maxMetaBytes)
			}
		default:
			err = fmt.Errorf("unknown part %q (want %s, %s, %s)", name, PartAudio, PartIMU, PartMeta)
		}
		part.Close()
		if err != nil {
			return nil, fmt.Errorf("sessionio: part %q: %w", name, err)
		}
	}
	if !haveAudio || !haveIMU {
		return nil, fmt.Errorf("sessionio: multipart upload needs %q and %q parts", PartAudio, PartIMU)
	}
	return ReadBundleParts(audio.Bytes(), imuCSV.Bytes(), metaJSON)
}
