package core

import "sync"

// Scratch holds the reusable working buffers for one pipeline run — the
// per-call `make([]float64, n)` sites of MSP (axis extraction, smoothing,
// power, yaw integration) and PDE (per-segment velocity series) extended
// upward from the chirp.DetectScratch pattern. Locate2D/3D/Full3DContext
// borrow one from a package pool for the duration of the call, so a warm
// Localizer's steady state allocates result structs only.
//
// Ownership rules:
//
//   - A Scratch belongs to exactly one pipeline run at a time. The MSPResult
//     produced inside that run aliases the scratch buffers and must not
//     outlive it; the public Result2D/3D/Full3D types deliberately carry no
//     MSPResult so nothing scratch-backed escapes.
//   - The movement estimates run one after another, so one PDE velocity
//     scratch (s.pde) serves them all.
//   - The pool hands out values with whatever capacity their previous
//     session grew them to; every user resizes with growF64/growBool before
//     reading.
type Scratch struct {
	msp mspScratch
	pde pdeScratch
}

// mspScratch backs one PreprocessIMU pass. res is the MSPResult header
// returned to the caller; its slices point into the buffers below.
type mspScratch struct {
	raw        []float64 // axis-extraction staging, reused for x/y/z in turn
	ax, ay, az []float64
	gyroZ      []float64
	combined   []float64
	power      []float64
	yawRaw     []float64
	moving     []bool
	yawDev     []float64
	segs       []Segment
	res        MSPResult
}

// pdeScratch backs a run's EstimateMovement calls.
type pdeScratch struct {
	vy, vz []float64
}

var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// getScratch borrows a pipeline Scratch from the package pool. The caller
// must return it with putScratch when the run's results no longer alias
// it; the poolleak analyzer guards escapes at every borrow site.
//
//hyperearvet:pooled
func getScratch() *Scratch { return scratchPool.Get().(*Scratch) }

func putScratch(s *Scratch) { scratchPool.Put(s) }

// growF64 returns a length-n float64 slice, reusing buf's storage when it
// is large enough. Contents are unspecified.
//
//hyperearvet:zeroalloc
func growF64(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// growBool is growF64 for bool slices.
func growBool(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	return buf[:n]
}
