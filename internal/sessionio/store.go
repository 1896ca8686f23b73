package sessionio

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"hyperear/internal/imu"
	"hyperear/internal/mic"
)

// Meta is the JSON sidecar describing a stored session: enough for the
// pipeline (device geometry, beacon parameters) plus optional ground truth
// for scoring.
type Meta struct {
	// Phone geometry and front end.
	PhoneName     string  `json:"phoneName"`
	MicSeparation float64 `json:"micSeparationM"`
	SampleRate    float64 `json:"sampleRateHz"`
	// Beacon parameters.
	ChirpLowHz   float64 `json:"chirpLowHz"`
	ChirpHighHz  float64 `json:"chirpHighHz"`
	ChirpDurS    float64 `json:"chirpDurS"`
	ChirpPeriodS float64 `json:"chirpPeriodS"`
	// Optional ground truth (zeroes when unknown).
	TrueDistanceM float64 `json:"trueDistanceM,omitempty"`
	Notes         string  `json:"notes,omitempty"`
}

// Bundle is a session on disk: audio.wav + imu.csv + meta.json in one
// directory.
type Bundle struct {
	Recording *mic.Recording
	IMU       *imu.Trace
	Meta      Meta
}

// Filenames inside a session directory.
const (
	audioFile = "audio.wav"
	imuFile   = "imu.csv"
	metaFile  = "meta.json"
)

// Save writes the bundle into dir (created if needed).
func Save(dir string, b *Bundle) error {
	if b == nil || b.Recording == nil || b.IMU == nil {
		return fmt.Errorf("sessionio: incomplete bundle")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("sessionio: create %s: %w", dir, err)
	}
	af, err := os.Create(filepath.Join(dir, audioFile))
	if err != nil {
		return fmt.Errorf("sessionio: %w", err)
	}
	defer af.Close()
	if err := WriteRecording(af, b.Recording); err != nil {
		return err
	}
	if err := af.Close(); err != nil {
		return fmt.Errorf("sessionio: close audio: %w", err)
	}

	mf, err := os.Create(filepath.Join(dir, imuFile))
	if err != nil {
		return fmt.Errorf("sessionio: %w", err)
	}
	defer mf.Close()
	if err := WriteIMU(mf, b.IMU); err != nil {
		return err
	}
	if err := mf.Close(); err != nil {
		return fmt.Errorf("sessionio: close imu: %w", err)
	}

	meta, err := json.MarshalIndent(b.Meta, "", "  ")
	if err != nil {
		return fmt.Errorf("sessionio: marshal meta: %w", err)
	}
	if err := os.WriteFile(filepath.Join(dir, metaFile), meta, 0o644); err != nil {
		return fmt.Errorf("sessionio: write meta: %w", err)
	}
	return nil
}

// Load reads a bundle saved by Save (or assembled by hand from real
// captures following the same layout): its three files go through
// ReadBundleParts, the function uploads are decoded by. The recording's
// channels come from the sample pool (see RecycleBundle).
//
//hyperearvet:pooled
func Load(dir string) (*Bundle, error) {
	var parts [3][]byte
	for i, name := range [...]string{audioFile, imuFile, metaFile} {
		raw, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("sessionio: %w", err)
		}
		parts[i] = raw
	}
	return ReadBundleParts(parts[0], parts[1], parts[2])
}
