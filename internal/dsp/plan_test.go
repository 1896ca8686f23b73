package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestPlanForRejectsNonPow2(t *testing.T) {
	for _, n := range []int{0, -4, 3, 6, 100} {
		if _, err := PlanFor(n); err == nil {
			t.Errorf("PlanFor(%d) should error", n)
		}
	}
}

func TestPlanForCachesBySize(t *testing.T) {
	a, err := PlanFor(256)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PlanFor(256)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("PlanFor(256) returned distinct plans for the same size")
	}
	if a.Size() != 256 {
		t.Errorf("Size() = %d, want 256", a.Size())
	}
}

// TestPlanRoundTripAllSizes: the unscaled bit-reversed inverse the
// band-limited matched filter runs undoes Forward at every size up to
// 2^10, 1 included.
func TestPlanRoundTripAllSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 1024; n <<= 1 {
		p, err := PlanFor(n)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]complex128, n)
		orig := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			orig[i] = x[i]
		}
		p.Forward(x)
		p.inverseBitReversed(x)
		for i := range orig {
			if d := cAbs(x[p.rev[i]]/complex(float64(n), 0) - orig[i]); d > 1e-10 {
				t.Fatalf("n=%d: round trip error %g at %d", n, d, i)
			}
		}
	}
}

// dftOracle evaluates single bins of a direct DFT of size n from an exact
// twiddle table (index j·k reduced mod n before the lookup), so it shares
// no code or factorization with the FFT kernels it checks.
type dftOracle struct {
	n int
	w []complex128 // w[t] = exp(-2πit/n)
}

func newDFTOracle(n int) *dftOracle {
	o := &dftOracle{n: n, w: make([]complex128, n)}
	for t := range o.w {
		s, c := math.Sincos(-2 * math.Pi * float64(t) / float64(n))
		o.w[t] = complex(c, s)
	}
	return o
}

// bin returns Σ_j x[j]·exp(∓2πijk/n) (the minus sign for forward),
// treating x as zero-padded to n.
func (o *dftOracle) bin(x []complex128, k int, forward bool) complex128 {
	var s complex128
	for j, v := range x {
		w := o.w[j*k%o.n]
		if !forward {
			w = complex(real(w), -imag(w))
		}
		s += v * w
	}
	return s
}

// oracleBins returns the indices checked at size n: all of them up to
// 2^10, and above that the edges, the quarter points, and a seeded
// sample.
func oracleBins(n int, rng *rand.Rand) []int {
	if n <= 1<<10 {
		bins := make([]int, n)
		for i := range bins {
			bins[i] = i
		}
		return bins
	}
	bins := []int{0, 1, n/4 - 1, n / 4, n/2 - 1, n / 2, n/2 + 1, 3 * n / 4, n - 1}
	for i := 0; i < 48; i++ {
		bins = append(bins, rng.Intn(n))
	}
	return bins
}

// TestPlanMatchesNaiveDFT is the kernel-independent oracle for every FFT
// kernel form — Plan.Forward (the complex reference), the unscaled
// bit-reversed inverse the band-limited matched filter runs,
// RealPlan.ForwardReal (full and zero-padded input) and
// RealPlan.InverseReal (full and truncated output) — at every power of
// two from 2 to 2^16. Odd and even log2 n
// exercise both kernel shapes (a leading radix-2 stage or none), and the
// range covers the production block sizes 2^13–2^15.
func TestPlanMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for n := 2; n <= 1<<16; n <<= 1 {
		o := newDFTOracle(n)
		bins := oracleBins(n, rng)
		// Bins are O(√n) for unit-variance input; rounding in both the
		// kernel and the oracle grows like √n·log n ulps of that.
		tol := 1e-14 * float64(n)
		check := func(what string, k int, got, want complex128) {
			t.Helper()
			if d := cAbs(got - want); d > tol {
				t.Fatalf("n=%d %s bin %d: kernel %v vs DFT %v (Δ %.3g > %.3g)", n, what, k, got, want, d, tol)
			}
		}
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		p := planFor(n)
		fwd := append([]complex128(nil), x...)
		p.Forward(fwd)
		inv := append([]complex128(nil), x...)
		p.inverseBitReversed(inv)
		for _, k := range bins {
			check("Forward", k, fwd[k], o.bin(x, k, true))
			check("inverseBitReversed", k, inv[p.rev[k]], o.bin(x, k, false))
		}

		// Real forward: full-length input, then one sample short (the
		// straddling pair and the implicit zero padding).
		rp := realPlanFor(n)
		xr := make([]float64, n)
		xc := make([]complex128, n)
		for i := range xr {
			xr[i] = rng.NormFloat64()
			xc[i] = complex(xr[i], 0)
		}
		spec := make([]complex128, rp.SpectrumLen())
		for _, in := range []int{n, n - 1} {
			rp.ForwardReal(spec, xr[:in])
			for _, k := range bins {
				if k <= n/2 {
					check(fmt.Sprintf("ForwardReal(len %d)", in), k, spec[k], o.bin(xc[:in], k, true))
				}
			}
		}

		// Real inverse: a random Hermitian half spectrum (real DC and
		// Nyquist), expanded to the full spectrum for the oracle, with
		// the whole output and a truncated odd-length prefix.
		half := make([]complex128, n/2+1)
		full := make([]complex128, n)
		for k := range half {
			half[k] = complex(rng.NormFloat64(), rng.NormFloat64())
			if k == 0 || k == n/2 {
				half[k] = complex(real(half[k]), 0)
			}
			full[k] = half[k]
			if k > 0 && k < n/2 {
				full[n-k] = complex(real(half[k]), -imag(half[k]))
			}
		}
		for _, out := range []int{n, n - 1} {
			got := make([]float64, out)
			rp.InverseReal(got, append([]complex128(nil), half...))
			for _, k := range bins {
				if k < out {
					want := o.bin(full, k, false) / complex(float64(n), 0)
					check(fmt.Sprintf("InverseReal(len %d)", out), k, complex(got[k], 0), want)
				}
			}
		}
	}
}

func cAbs(c complex128) float64 { return math.Hypot(real(c), imag(c)) }

// TestIntoVariantsMatchAllocating: the Into variants must agree with the
// allocating APIs and reuse a caller-provided buffer.
func TestIntoVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, 777)
	ref := make([]float64, 61)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for i := range ref {
		ref[i] = rng.NormFloat64()
	}
	var dst []float64
	check := func(name string, got, want []float64) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: length %d vs %d", name, len(got), len(want))
		}
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("%s: mismatch at %d: %v vs %v", name, i, got[i], want[i])
			}
		}
	}
	dst = CrossCorrelateInto(dst, x, ref)
	check("CrossCorrelateInto", dst, CrossCorrelate(x, ref))
	prev := &dst[0]
	dst = EnvelopeInto(dst, x)
	if &dst[0] != prev {
		t.Error("EnvelopeInto reallocated a sufficient buffer")
	}
	check("EnvelopeInto", dst, Envelope(x))
}

func TestIntoVariantsEmptyInputs(t *testing.T) {
	dst := make([]float64, 5)
	if got := CrossCorrelateInto(dst, nil, []float64{1}); len(got) != 0 {
		t.Errorf("CrossCorrelateInto empty x: len %d", len(got))
	}
	if got := EnvelopeInto(dst, nil); len(got) != 0 {
		t.Errorf("EnvelopeInto empty: len %d", len(got))
	}
}

// TestCrossCorrelateMatchesDirectRandomLengths is the differential
// property test of the FFT path against the O(N·M) reference across random
// lengths, including tiny and non-power-of-two inputs.
func TestCrossCorrelateMatchesDirectRandomLengths(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	lengths := [][2]int{{1, 1}, {1, 7}, {2, 1}, {3, 5}, {17, 17}, {100, 33}}
	for trial := 0; trial < 40; trial++ {
		nx := 1 + rng.Intn(600)
		nr := 1 + rng.Intn(200)
		lengths = append(lengths, [2]int{nx, nr})
	}
	for _, l := range lengths {
		x := make([]float64, l[0])
		ref := make([]float64, l[1])
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range ref {
			ref[i] = rng.NormFloat64()
		}
		fftR := CrossCorrelate(x, ref)
		dirR := CrossCorrelateDirect(x, ref)
		if len(fftR) != len(dirR) {
			t.Fatalf("nx=%d nr=%d: length mismatch %d vs %d", l[0], l[1], len(fftR), len(dirR))
		}
		for i := range fftR {
			if math.Abs(fftR[i]-dirR[i]) > 1e-8 {
				t.Fatalf("nx=%d nr=%d: mismatch at %d: %v vs %v", l[0], l[1], i, fftR[i], dirR[i])
			}
		}
	}
}

func TestCorrelatorMatchesCrossCorrelate(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	ref := make([]float64, 97)
	for i := range ref {
		ref[i] = rng.NormFloat64()
	}
	c := NewCorrelator(ref)
	if c.RefLen() != len(ref) {
		t.Fatalf("RefLen = %d, want %d", c.RefLen(), len(ref))
	}
	// Repeat lengths to exercise the cached-spectrum path.
	for _, n := range []int{500, 123, 500, 4096, 123} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		got := c.CrossCorrelate(x)
		want := CrossCorrelate(x, ref)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-10 {
				t.Fatalf("n=%d: mismatch at %d: %v vs %v", n, i, got[i], want[i])
			}
		}
	}
}

func TestCorrelatorCopiesTemplate(t *testing.T) {
	ref := []float64{1, 2, 3}
	c := NewCorrelator(ref)
	ref[0] = 99
	x := []float64{0, 1, 2, 3, 0, 0}
	got := c.CrossCorrelate(x)
	want := CrossCorrelate(x, []float64{1, 2, 3})
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Fatalf("mutating the caller's slice changed the template")
		}
	}
}

// TestPlanPathZeroAllocs: the Into variants with a warm plan cache and a
// reused destination must not allocate (the acceptance criterion for the
// serving hot path).
func TestPlanPathZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	x := make([]float64, 4000)
	ref := make([]float64, 500)
	for i := range x {
		x[i] = math.Sin(float64(i) * 0.1)
	}
	for i := range ref {
		ref[i] = math.Cos(float64(i) * 0.2)
	}
	dst := make([]float64, len(x))
	c := NewCorrelator(ref)
	warm := func() {
		dst = CrossCorrelateInto(dst, x, ref)
		dst = EnvelopeInto(dst, x)
		dst = c.CrossCorrelateInto(dst, x)
	}
	warm()
	cases := []struct {
		name string
		fn   func()
	}{
		{"CrossCorrelateInto", func() { dst = CrossCorrelateInto(dst, x, ref) }},
		{"EnvelopeInto", func() { dst = EnvelopeInto(dst, x) }},
		{"Correlator.CrossCorrelateInto", func() { dst = c.CrossCorrelateInto(dst, x) }},
	}
	for _, tc := range cases {
		// A GC between runs may drain the scratch pools; allow a fraction
		// of refills but no per-call allocation.
		if allocs := testing.AllocsPerRun(50, tc.fn); allocs > 0.5 {
			t.Errorf("%s: %.2f allocs/run, want 0 in steady state", tc.name, allocs)
		}
	}
}
