package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefaultBounds are the magnitude buckets used when a histogram is first
// observed without explicit bounds — a 1/3/10 ladder spanning the
// pipeline's physical quantities (drift slopes in m/s², displacements in
// meters).
var DefaultBounds = []float64{1e-4, 3e-4, 1e-3, 3e-3, 0.01, 0.03, 0.1, 0.3, 1, 3, 10}

// DurationBounds are the span-duration buckets in seconds (1 µs … 10 s,
// decade steps).
var DurationBounds = []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 1, 10}

// Registry holds named atomic counters and histograms. All methods are
// safe for concurrent use; reads on the hot path take only an RLock on
// the name table plus atomic ops.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*atomic.Uint64
	hists    map[string]*Histogram
	gauges   map[string]*Gauge
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*atomic.Uint64),
		hists:    make(map[string]*Histogram),
		gauges:   make(map[string]*Gauge),
	}
}

// counter returns the named counter, creating it on first use.
func (r *Registry) counter(name string) *atomic.Uint64 {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = new(atomic.Uint64)
		r.counters[name] = c
	}
	return c
}

// Add adds n to the named counter.
func (r *Registry) Add(name string, n uint64) { r.counter(name).Add(n) }

// Get returns the named counter's current value (0 if never touched). No
// production path calls it (exposition reads a Snapshot): it is how the
// tests of several packages (internal/obs, internal/server,
// internal/sessionstore) read one counter.
func (r *Registry) Get(name string) uint64 {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c == nil {
		return 0
	}
	return c.Load()
}

// Gauge returns the named gauge, creating it on first use. Unlike
// counters, gauges are signed point-in-time levels (queue depth, live
// sessions) and track their own high-watermark.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = new(Gauge)
		r.gauges[name] = g
	}
	return g
}

// Gauge is a signed point-in-time level with a monotone high-watermark,
// safe for concurrent use. A nil *Gauge is a valid receiver: every method
// is a no-op (reads return 0), mirroring the package's nil-disabled
// convention.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set stores the level.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.bump(v)
}

// Add adjusts the level by d (negative to decrement) and returns the new
// level.
func (g *Gauge) Add(d int64) int64 {
	if g == nil {
		return 0
	}
	v := g.v.Add(d)
	g.bump(v)
	return v
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max returns the highest level ever observed (never below 0: the
// watermark starts at the zero level).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

func (g *Gauge) bump(v int64) {
	for {
		m := g.max.Load()
		if v <= m || g.max.CompareAndSwap(m, v) {
			return
		}
	}
}

// Hist returns the named histogram, creating it with the given bounds on
// first use (bounds must be sorted ascending; nil selects DefaultBounds).
// Bounds are fixed at creation; later calls ignore the argument.
func (r *Registry) Hist(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Observe records v into the named histogram (DefaultBounds on first
// use).
func (r *Registry) Observe(name string, v float64) {
	r.Hist(name, DefaultBounds).Observe(v)
}

// ObserveDur records a duration (in seconds) into the named histogram
// (DurationBounds on first use).
func (r *Registry) ObserveDur(name string, d time.Duration) {
	r.Hist(name, DurationBounds).Observe(d.Seconds())
}

// Histogram is a fixed-bucket histogram with atomic counters. Bucket i
// counts observations v <= Bounds[i]; the final implicit bucket counts
// overflows.
type Histogram struct {
	bounds []float64
	counts []atomic.Uint64 // len(bounds)+1, last = overflow
	n      atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-updated
}

func newHistogram(bounds []float64) *Histogram {
	if bounds == nil {
		bounds = DefaultBounds
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v; len(bounds) = overflow
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistSnapshot is a point-in-time copy of a histogram.
type HistSnapshot struct {
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
}

// Mean returns the mean observed value (0 when empty).
func (h HistSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Quantile estimates the p-quantile (p in [0,1], clamped) with linear
// interpolation inside the straddling bucket, the same estimator
// Prometheus's histogram_quantile uses: observations are assumed
// uniform within a bucket, the lowest bucket's lower edge is 0 (the
// registry's histograms hold non-negative durations and magnitudes),
// and a quantile landing in the overflow bucket reports the highest
// finite bound — the histogram cannot resolve beyond it. Returns 0 on
// an empty snapshot.
func (h HistSnapshot) Quantile(p float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	if !(p > 0) { // also catches NaN
		p = 0
	} else if p > 1 {
		p = 1
	}
	rank := p * float64(h.Count)
	var cum uint64
	for i, c := range h.Counts {
		prev := cum
		cum += c
		if c == 0 || float64(cum) < rank {
			continue
		}
		if i >= len(h.Bounds) {
			return h.Bounds[len(h.Bounds)-1]
		}
		hi := h.Bounds[i]
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		} else if hi < 0 {
			lo = hi
		}
		return lo + (hi-lo)*(rank-float64(prev))/float64(c)
	}
	return h.Bounds[len(h.Bounds)-1]
}

// CDF estimates the fraction of observations at or below v, with the
// same within-bucket uniformity assumption as Quantile. Returns 0 on an
// empty snapshot; 1 when v is at or above the highest finite bound's
// bucket (the overflow bucket's upper edge is unknowable, so any v past
// the last bound counts all of it).
func (h HistSnapshot) CDF(v float64) float64 {
	if h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	var below float64
	for i := range h.Bounds {
		hi := h.Bounds[i]
		c := float64(h.Counts[i])
		if v >= hi {
			below += c
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = h.Bounds[i-1]
		} else if hi < 0 {
			lo = hi
		}
		if v > lo && hi > lo {
			below += c * (v - lo) / (hi - lo)
		}
		return below / float64(h.Count)
	}
	// v at or above every bound: the overflow bucket counts wholly.
	below += float64(h.Counts[len(h.Counts)-1])
	return below / float64(h.Count)
}

// Sub returns the observations recorded between old and h (two
// cumulative snapshots of the same histogram, h the later one): the
// windowed delta behind rolling quantiles. Mismatched bounds or a
// counter reset (old ahead of h) return h unchanged — the window
// restarts rather than reporting negative counts. Sum differences are
// floored at 0 against concurrent-update skew.
func (h HistSnapshot) Sub(old HistSnapshot) HistSnapshot {
	if len(old.Bounds) != len(h.Bounds) || len(old.Counts) != len(h.Counts) || old.Count > h.Count {
		return h
	}
	for i := range h.Bounds {
		//hyperearvet:allow floatguard exact compare of bucket bounds copied verbatim from the same fixed-at-creation histogram
		if h.Bounds[i] != old.Bounds[i] {
			return h
		}
	}
	d := HistSnapshot{
		Count:  h.Count - old.Count,
		Sum:    h.Sum - old.Sum,
		Bounds: h.Bounds,
		Counts: make([]uint64, len(h.Counts)),
	}
	if d.Sum < 0 {
		d.Sum = 0
	}
	for i := range h.Counts {
		if h.Counts[i] >= old.Counts[i] {
			d.Counts[i] = h.Counts[i] - old.Counts[i]
		}
	}
	return d
}

// GaugeSnapshot is a point-in-time copy of a gauge.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// Snapshot is a point-in-time copy of a registry, suitable for JSON
// encoding (it is what the expvar export publishes).
type Snapshot struct {
	Counters   map[string]uint64        `json:"counters"`
	Histograms map[string]HistSnapshot  `json:"histograms"`
	Gauges     map[string]GaugeSnapshot `json:"gauges,omitempty"`
}

// Snapshot copies every counter, histogram, and gauge.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{
		Counters:   make(map[string]uint64, len(r.counters)),
		Histograms: make(map[string]HistSnapshot, len(r.hists)),
		Gauges:     make(map[string]GaugeSnapshot, len(r.gauges)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Load()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeSnapshot{Value: g.Value(), Max: g.Max()}
	}
	for name, h := range r.hists {
		hs := HistSnapshot{
			Count:  h.n.Load(),
			Sum:    math.Float64frombits(h.sum.Load()),
			Bounds: h.bounds,
			Counts: make([]uint64, len(h.counts)),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		s.Histograms[name] = hs
	}
	return s
}

// SumPrefix totals every counter whose name starts with prefix. No
// production path calls it: the root package's pipeline tests and
// benchmarks total the per-reason slide rejections with it, and the
// internal/obs tests check per-worker counter totals.
func (s Snapshot) SumPrefix(prefix string) uint64 {
	var total uint64
	for name, v := range s.Counters {
		if strings.HasPrefix(name, prefix) {
			total += v
		}
	}
	return total
}

// String renders the snapshot as a sorted human-readable table: one line
// per counter, then one summary line per histogram.
func (s Snapshot) String() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for name := range s.Counters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(&b, "%-44s %d\n", name, s.Counters[name])
	}
	names = names[:0]
	for name := range s.Gauges {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := s.Gauges[name]
		fmt.Fprintf(&b, "%-44s %d (max %d)\n", name, g.Value, g.Max)
	}
	names = names[:0]
	for name := range s.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := s.Histograms[name]
		fmt.Fprintf(&b, "%-44s n=%d mean=%.6g sum=%.6g\n", name, h.Count, h.Mean(), h.Sum)
	}
	return b.String()
}
