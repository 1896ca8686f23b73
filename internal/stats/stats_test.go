package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.N != 5 || s.Mean != 3 || s.Median != 3 || s.Min != 1 || s.Max != 5 {
		t.Errorf("summary = %+v", s)
	}
	if math.Abs(s.Std-math.Sqrt(2)) > 1e-12 {
		t.Errorf("std = %v, want sqrt(2)", s.Std)
	}
	if got := Summarize(nil); got.N != 0 {
		t.Errorf("empty summary = %+v", got)
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize([]float64{0.10, 0.20})
	str := s.String()
	if !strings.Contains(str, "mean=15.0cm") {
		t.Errorf("String() = %q", str)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 5}, {50, 3}, {25, 2}, {90, 4.6}, {-5, 1}, {150, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 50)) {
		t.Error("empty percentile should be NaN")
	}
	if got := Percentile([]float64{7}, 50); got != 7 {
		t.Errorf("single-element percentile = %v", got)
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, tc := range cases {
		if got := c.At(tc.x); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", tc.x, got, tc.want)
		}
	}
	if !math.IsNaN(NewCDF(nil).At(1)) {
		t.Error("empty CDF should be NaN")
	}
}

func TestCDFQuantileInvertsAt(t *testing.T) {
	xs := []float64{0.05, 0.1, 0.15, 0.2, 0.3, 0.5}
	c := NewCDF(xs)
	// Interpolated percentiles invert the step CDF to within 1/n.
	slack := 1 / float64(len(xs))
	for _, q := range []float64{0.1, 0.5, 0.9} {
		x := Percentile(xs, q*100)
		if c.At(x) < q-slack-1e-9 {
			t.Errorf("At(Percentile(%v)) = %v < %v - 1/n", q*100, c.At(x), q)
		}
	}
}

// TestCDFMonotoneProperty: the CDF must be nondecreasing.
func TestCDFMonotoneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, math.Mod(v, 100))
			}
		}
		if len(xs) == 0 {
			return true
		}
		c := NewCDF(xs)
		probe := append([]float64{}, xs...)
		sort.Float64s(probe)
		prev := 0.0
		for _, x := range probe {
			cur := c.At(x)
			if cur < prev-1e-12 {
				return false
			}
			prev = cur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestAsciiPlotShape(t *testing.T) {
	c := NewCDF([]float64{0.1, 0.2, 0.3, 0.4})
	out := c.AsciiPlot(0.5, 30, 8)
	if !strings.Contains(out, "*") {
		t.Error("plot has no marks")
	}
	if !strings.Contains(out, "1.0 |") || !strings.Contains(out, "0.0 |") {
		t.Errorf("plot missing axes:\n%s", out)
	}
	// Tiny dimensions are clamped, not rejected.
	if out := c.AsciiPlot(0.5, 1, 1); !strings.Contains(out, "*") {
		t.Error("clamped plot has no marks")
	}
}
