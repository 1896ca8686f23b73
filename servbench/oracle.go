package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"mime"
	"net/http"

	"hyperear/internal/core"
	"hyperear/internal/geom"
)

// Fix is the part of a locate response the oracle checks: the position
// estimate and its distance, plus the counts that say how it was reached.
// Fields the daemon adds later are ignored, so additive API changes do not
// break the benchmark.
type Fix struct {
	Mode string `json:"mode"`
	// 2D responses.
	Pos geom.Vec2 `json:"pos"`
	L   float64   `json:"l"`
	// 3D responses.
	ProjectedPos  geom.Vec2 `json:"projectedPos"`
	ProjectedDist float64   `json:"projectedDist"`

	Movements int     `json:"movements"`
	Beacons   int     `json:"beacons"`
	SFOPPM    float64 `json:"sfoPPM"`
	// Fixes is the accepted slide count: a number for 2D, one per stature
	// for 3D.
	Fixes json.RawMessage `json:"fixes"`
}

// FloorPos is the floor-map estimate in the start body frame.
func (f Fix) FloorPos() geom.Vec2 {
	if f.Mode == "3d" {
		return f.ProjectedPos
	}
	return f.Pos
}

// accepted returns the total accepted slide count.
func (f Fix) accepted() (int, error) {
	var n int
	if err := json.Unmarshal(f.Fixes, &n); err == nil {
		return n, nil
	}
	var per [2]int
	if err := json.Unmarshal(f.Fixes, &per); err != nil {
		return 0, fmt.Errorf("fixes %q is neither a count nor a per-stature pair", f.Fixes)
	}
	return per[0] + per[1], nil
}

func fix2D(res *core.Result2D) Fix {
	return Fix{
		Mode: "2d", Pos: res.Pos, L: res.L,
		Movements: len(res.Movements), Beacons: len(res.ASP.Beacons), SFOPPM: res.ASP.SFOPPM,
		Fixes: json.RawMessage(fmt.Sprint(len(res.Fixes))),
	}
}

func fix3D(res *core.Result3D) (Fix, error) {
	if math.IsNaN(res.Beta) {
		// The daemon cannot JSON-encode a NaN angle, so this session would
		// come back as an empty 200; keep it out of the corpus.
		return Fix{}, fmt.Errorf("3D result has an undefined stature angle")
	}
	return Fix{
		Mode: "3d", ProjectedPos: res.ProjectedPos, ProjectedDist: res.ProjectedDist,
		Movements: len(res.Movements), Beacons: len(res.ASP.Beacons), SFOPPM: res.ASP.SFOPPM,
		Fixes: json.RawMessage(fmt.Sprintf("[%d,%d]", len(res.Fixes[0]), len(res.Fixes[1]))),
	}, nil
}

// sameFix reports whether two fixes are bit-identical in every checked
// field.
func sameFix(a, b Fix) error {
	na, err := a.accepted()
	if err != nil {
		return err
	}
	nb, err := b.accepted()
	if err != nil {
		return err
	}
	floats := [...]struct {
		name string
		a, b float64
	}{
		{"pos.X", a.Pos.X, b.Pos.X}, {"pos.Y", a.Pos.Y, b.Pos.Y}, {"l", a.L, b.L},
		{"projectedPos.X", a.ProjectedPos.X, b.ProjectedPos.X},
		{"projectedPos.Y", a.ProjectedPos.Y, b.ProjectedPos.Y},
		{"projectedDist", a.ProjectedDist, b.ProjectedDist},
		{"sfoPPM", a.SFOPPM, b.SFOPPM},
	}
	switch {
	case a.Mode != b.Mode:
		return fmt.Errorf("mode %q, want %q", a.Mode, b.Mode)
	case a.Movements != b.Movements || a.Beacons != b.Beacons || na != nb:
		return fmt.Errorf("counts movements/beacons/fixes %d/%d/%d, want %d/%d/%d",
			a.Movements, a.Beacons, na, b.Movements, b.Beacons, nb)
	}
	for _, f := range floats {
		if math.Float64bits(f.a) != math.Float64bits(f.b) {
			return fmt.Errorf("%s = %v, want %v (not bit-identical)", f.name, f.a, f.b)
		}
	}
	return nil
}

// Expected statuses per op.
const (
	statusCreate = http.StatusCreated
	statusLocate = http.StatusOK
	statusChunk  = http.StatusOK
	statusIMU    = http.StatusNoContent
	statusDelete = http.StatusNoContent
)

// checkStatus fails an op whose status is not the expected one.
func checkStatus(op string, got, want int, body []byte) error {
	if got != want {
		return fmt.Errorf("%s: status %d, want %d: %.200s", op, got, want, bytes.TrimSpace(body))
	}
	return nil
}

// checkLocate is the locate oracle: the response decodes to a fix that is
// bit-identical to the item's in-process reference and within maxErrM of
// ground truth. It returns the fix's floor-map error in meters.
func checkLocate(it *Item, body []byte) (float64, error) {
	var got Fix
	if err := json.Unmarshal(body, &got); err != nil {
		return 0, fmt.Errorf("locate item %d: decoding response: %w", it.Index, err)
	}
	if it.refErr != nil {
		return 0, fmt.Errorf("locate item %d: no reference: %w", it.Index, it.refErr)
	}
	if err := sameFix(got, it.ref); err != nil {
		return 0, fmt.Errorf("locate item %d: %w", it.Index, err)
	}
	e := it.errM(got)
	if !(e <= maxErrM) {
		return e, fmt.Errorf("locate item %d: fix %.1f cm from ground truth (limit %.0f cm)", it.Index, 100*e, 100*maxErrM)
	}
	return e, nil
}

// chunkResponse is the audio-append reply's accounting.
type chunkResponse struct {
	Consumed *int `json:"consumed"`
}

// checkChunk is the chunk oracle: the stream detector reports having
// consumed exactly the frames sent so far.
func checkChunk(body []byte, framesSent int) error {
	var r chunkResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("chunk: decoding response: %w", err)
	}
	if r.Consumed == nil {
		return fmt.Errorf("chunk: response has no consumed count")
	}
	if *r.Consumed != framesSent {
		return fmt.Errorf("chunk: consumed %d frames, %d sent", *r.Consumed, framesSent)
	}
	return nil
}

// checkStreamMatchesBatch is the session oracle used where both answers
// are at hand: a streamed session's locate body equals the batch answer
// for the same item byte for byte.
func checkStreamMatchesBatch(it *Item, stream, batch []byte) error {
	if !bytes.Equal(stream, batch) {
		return fmt.Errorf("session locate item %d: body differs from the batch answer\nstream: %.300s\nbatch:  %.300s",
			it.Index, stream, batch)
	}
	return nil
}

// cutBoundary extracts the multipart boundary from a content type.
func cutBoundary(contentType string) (string, bool) {
	_, params, err := mime.ParseMediaType(contentType)
	if err != nil || params["boundary"] == "" {
		return "", false
	}
	return params["boundary"], true
}
