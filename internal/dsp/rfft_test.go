package dsp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func TestRealPlanForRejectsBadSizes(t *testing.T) {
	for _, n := range []int{-2, 0, 1, 3, 6, 100} {
		if _, err := RealPlanFor(n); err == nil {
			t.Errorf("RealPlanFor(%d) should error", n)
		}
	}
}

func TestRealPlanForCachesBySize(t *testing.T) {
	a, err := RealPlanFor(512)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RealPlanFor(512)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("RealPlanFor(512) returned distinct plans for the same size")
	}
	if a.Size() != 512 || a.SpectrumLen() != 257 {
		t.Errorf("Size()=%d SpectrumLen()=%d, want 512/257", a.Size(), a.SpectrumLen())
	}
}

// TestRealPlanForwardMatchesComplexPlan is the differential test pinning
// the packed real path against the complex Plan on random vectors for
// every size 2..8192, with explicit checks of the DC and Nyquist bins
// (which must come out purely real).
func TestRealPlanForwardMatchesComplexPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for n := 2; n <= 8192; n <<= 1 {
		rp, err := RealPlanFor(n)
		if err != nil {
			t.Fatal(err)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		// Reference: widen to complex and run the full-size plan.
		want := make([]complex128, n)
		for i, v := range x {
			want[i] = complex(v, 0)
		}
		planFor(n).Forward(want)

		got := make([]complex128, rp.SpectrumLen())
		rp.ForwardReal(got, x)
		tol := 1e-9 * math.Sqrt(float64(n))
		for k := 0; k <= n/2; k++ {
			if d := cAbs(got[k] - want[k]); d > tol {
				t.Fatalf("n=%d bin %d: real path %v vs complex %v (Δ %g)", n, k, got[k], want[k], d)
			}
		}
		if imag(got[0]) != 0 {
			t.Errorf("n=%d: DC bin has imaginary part %g", n, imag(got[0]))
		}
		if imag(got[n/2]) != 0 {
			t.Errorf("n=%d: Nyquist bin has imaginary part %g", n, imag(got[n/2]))
		}
	}
}

// TestRealPlanRoundTrip: ForwardReal→InverseReal must reproduce the input
// for every size 2..8192, including implicitly zero-padded (short) inputs
// and truncated outputs.
func TestRealPlanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for n := 2; n <= 8192; n <<= 1 {
		rp := realPlanFor(n)
		for _, inLen := range []int{n, n / 2, n - 1, 1} {
			if inLen < 1 {
				continue
			}
			x := make([]float64, inLen)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			spec := make([]complex128, rp.SpectrumLen())
			rp.ForwardReal(spec, x)
			got := make([]float64, n)
			rp.InverseReal(got, spec)
			for i := 0; i < n; i++ {
				want := 0.0
				if i < inLen {
					want = x[i]
				}
				if d := math.Abs(got[i] - want); d > 1e-10 {
					t.Fatalf("n=%d inLen=%d: round trip error %g at %d", n, inLen, d, i)
				}
			}
			// Truncated output: only the requested prefix is written.
			short := make([]float64, inLen)
			spec2 := make([]complex128, rp.SpectrumLen())
			rp.ForwardReal(spec2, x)
			rp.InverseReal(short, spec2)
			for i := range short {
				if d := math.Abs(short[i] - x[i]); d > 1e-10 {
					t.Fatalf("n=%d inLen=%d: truncated inverse error %g at %d", n, inLen, d, i)
				}
			}
		}
	}
}

// TestRealPlanImpulseSpectra pins a handful of analytically known
// transforms: an impulse (flat spectrum), a DC signal (everything in bin
// 0), and a Nyquist-rate alternation (everything in the last bin).
func TestRealPlanImpulseSpectra(t *testing.T) {
	const n = 64
	rp := realPlanFor(n)
	spec := make([]complex128, rp.SpectrumLen())

	impulse := make([]float64, n)
	impulse[0] = 1
	rp.ForwardReal(spec, impulse)
	for k, v := range spec {
		if cAbs(v-1) > 1e-12 {
			t.Errorf("impulse bin %d = %v, want 1", k, v)
		}
	}

	dc := make([]float64, n)
	for i := range dc {
		dc[i] = 2.5
	}
	rp.ForwardReal(spec, dc)
	if cAbs(spec[0]-complex(2.5*n, 0)) > 1e-9 {
		t.Errorf("DC bin = %v, want %v", spec[0], 2.5*n)
	}
	for k := 1; k < len(spec); k++ {
		if cAbs(spec[k]) > 1e-9 {
			t.Errorf("DC signal leaked %v into bin %d", spec[k], k)
		}
	}

	nyq := make([]float64, n)
	for i := range nyq {
		nyq[i] = 1 - 2*float64(i%2)
	}
	rp.ForwardReal(spec, nyq)
	if cAbs(spec[n/2]-complex(float64(n), 0)) > 1e-9 {
		t.Errorf("Nyquist bin = %v, want %v", spec[n/2], n)
	}
	for k := 0; k < n/2; k++ {
		if cAbs(spec[k]) > 1e-9 {
			t.Errorf("Nyquist signal leaked %v into bin %d", spec[k], k)
		}
	}
}

// TestCorrFFTSizeExactFit: linear correlation needs lx+lr-1 samples, so a
// sum landing one past a power of two must NOT double the transform (the
// old NextPow2(lx+lr) sizing did).
func TestCorrFFTSizeExactFit(t *testing.T) {
	cases := []struct{ lx, lr, want int }{
		{1, 1, 2}, // degenerate: single-sample operands still get a 2-point plan
		{5, 4, 8}, // lx+lr-1 = 8 exactly: must stay at 8, not 16
		{100, 29, 128},
		{44100, 1764, 65536},
		{3, 3, 8}, // lx+lr-1 = 5 rounds up to 8
	}
	for _, c := range cases {
		if got := corrFFTSize(c.lx, c.lr); got != c.want {
			t.Errorf("corrFFTSize(%d, %d) = %d, want %d", c.lx, c.lr, got, c.want)
		}
	}
}

// TestCrossCorrelateExactPow2Boundary exercises the sizes where the old
// over-rounding doubled the FFT, pinning the result against the direct
// O(N·M) reference.
func TestCrossCorrelateExactPow2Boundary(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, l := range [][2]int{{5, 4}, {60, 5}, {1020, 5}, {513, 512}} {
		x := make([]float64, l[0])
		ref := make([]float64, l[1])
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range ref {
			ref[i] = rng.NormFloat64()
		}
		got := CrossCorrelate(x, ref)
		want := CrossCorrelateDirect(x, ref)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-8 {
				t.Fatalf("lx=%d lr=%d: mismatch at %d: %v vs %v", l[0], l[1], i, got[i], want[i])
			}
		}
	}
}

// circularCorrelateDirect is the O(N²) reference for the overlap-save
// primitive: dst[i] = Σ_j x̃[(i+j) mod n]·ref[j] with x̃ the zero-padded x.
func circularCorrelateDirect(x, ref []float64, n, outLen int) []float64 {
	xp := make([]float64, n)
	copy(xp, x)
	out := make([]float64, outLen)
	for i := range out {
		var s float64
		for j, r := range ref {
			s += xp[(i+j)%n] * r
		}
		out[i] = s
	}
	return out
}

func TestCorrelateCircularIntoMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	ref := make([]float64, 37)
	for i := range ref {
		ref[i] = rng.NormFloat64()
	}
	c := NewCorrelator(ref)
	const n = 128
	step := n - len(ref) + 1
	for _, xLen := range []int{n, n - 1, 50, len(ref)} {
		x := make([]float64, xLen)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		dst := make([]float64, step)
		c.CorrelateCircularInto(dst, x, n)
		want := circularCorrelateDirect(x, ref, n, step)
		for i := range dst {
			if math.Abs(dst[i]-want[i]) > 1e-9 {
				t.Fatalf("xLen=%d: lag %d: %v vs %v", xLen, i, dst[i], want[i])
			}
		}
	}
}

func TestCorrelateCircularIntoRejectsMisuse(t *testing.T) {
	c := NewCorrelator(make([]float64, 16))
	expectPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	expectPanic("non-pow2 size", func() {
		c.CorrelateCircularInto(make([]float64, 4), make([]float64, 20), 48)
	})
	expectPanic("input exceeds size", func() {
		c.CorrelateCircularInto(make([]float64, 4), make([]float64, 65), 64)
	})
	expectPanic("output exceeds alias-free step", func() {
		c.CorrelateCircularInto(make([]float64, 64), make([]float64, 64), 64)
	})
	// Empty dst is a no-op, never a panic.
	c.CorrelateCircularInto(nil, make([]float64, 64), 64)
}

// TestGetComplexPrefixClearsTail: white-box check of the pooled scratch
// contract — the region past the caller's written prefix must come back
// zeroed even when the pool hands out a dirty buffer.
func TestGetComplexPrefixClearsTail(t *testing.T) {
	p := getComplexPrefix(64, 0)
	for i := range *p {
		(*p)[i] = complex(1, 1)
	}
	putComplex(p)
	q := getComplexPrefix(64, 16)
	for i := 16; i < 64; i++ {
		if (*q)[i] != 0 {
			t.Fatalf("tail element %d = %v, want 0", i, (*q)[i])
		}
	}
	putComplex(q)
}

// TestRealKernelsZeroAllocs extends the steady-state allocation guarantee
// to the real-FFT kernels and the overlap-save primitive.
func TestRealKernelsZeroAllocs(t *testing.T) {
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
	c := NewCorrelator(ref)
	dst := make([]float64, 4096)
	spec := make([]complex128, 4096/2+1)
	rp := realPlanFor(4096)
	rp.ForwardReal(spec, x)
	c.CorrelateCircularInto(dst[:4096-len(ref)+1], x, 4096)
	cases := []struct {
		name string
		fn   func()
	}{
		{"ForwardReal", func() { rp.ForwardReal(spec, x) }},
		{"InverseReal", func() { rp.InverseReal(dst[:4000], spec) }},
		{"CorrelateCircularInto", func() { c.CorrelateCircularInto(dst[:4096-len(ref)+1], x, 4096) }},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(50, tc.fn); allocs > 0.5 {
			t.Errorf("%s: %.2f allocs/run, want 0 in steady state", tc.name, allocs)
		}
	}
}

// BenchmarkFFTReal times one ForwardReal + InverseReal round trip at the
// transform sizes production runs: 2^13 is the stream's correlation
// block for the flat 40 ms template, 2^14 the batch path's block for the
// band-pass-folded ASP template (2064 samples), and 2^15 the envelope
// block.
func BenchmarkFFTReal(b *testing.B) {
	for _, n := range []int{1 << 13, 1 << 14, 1 << 15} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x := make([]float64, n)
			for i := range x {
				x[i] = math.Sin(float64(i) * 0.127)
			}
			rp := realPlanFor(n)
			spec := make([]complex128, rp.SpectrumLen())
			out := make([]float64, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rp.ForwardReal(spec, x)
				rp.InverseReal(out, spec)
			}
		})
	}
}
