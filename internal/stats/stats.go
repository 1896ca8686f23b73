// Package stats provides the small amount of statistics the experiment
// harness needs: empirical CDFs, means, percentiles, and formatted summary
// rows matching the paper's reporting style (mean and 90%-precision
// accuracy per condition).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Summary condenses a sample of (error) values.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	P90    float64
	Min    float64
	Max    float64
	Std    float64
}

// Summarize computes a Summary of xs. An empty input yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	var sum, sq float64
	for _, v := range s {
		sum += v
		sq += v * v
	}
	n := float64(len(s))
	mean := sum / n
	variance := sq/n - mean*mean
	if variance < 0 {
		variance = 0
	}
	return Summary{
		N:      len(s),
		Mean:   mean,
		Median: Percentile(s, 50),
		P90:    Percentile(s, 90),
		Min:    s[0],
		Max:    s[len(s)-1],
		Std:    math.Sqrt(variance),
	}
}

// String renders the summary in centimeters, the paper's unit of accuracy.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.1fcm median=%.1fcm p90=%.1fcm max=%.1fcm",
		s.N, s.Mean*100, s.Median*100, s.P90*100, s.Max*100)
}

// Percentile returns the p-th percentile (0-100) of sorted xs using linear
// interpolation. xs must be sorted ascending.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if len(sorted) == 1 {
		return sorted[0]
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// CDF is an empirical cumulative distribution function.
type CDF struct {
	sorted []float64
}

// NewCDF builds an empirical CDF from xs (copied and sorted).
func NewCDF(xs []float64) *CDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &CDF{sorted: s}
}

// At returns P(X <= x).
func (c *CDF) At(x float64) float64 {
	if len(c.sorted) == 0 {
		return math.NaN()
	}
	// Count of values <= x via binary search.
	i := sort.SearchFloat64s(c.sorted, math.Nextafter(x, math.Inf(1)))
	return float64(i) / float64(len(c.sorted))
}

// AsciiPlot draws a coarse text rendering of the CDF over [0, xMax] with
// the given width and height — enough to eyeball the shape against the
// paper's figures in terminal output.
func (c *CDF) AsciiPlot(xMax float64, width, height int) string {
	if width < 8 {
		width = 8
	}
	if height < 4 {
		height = 4
	}
	rows := make([][]byte, height)
	for r := range rows {
		rows[r] = []byte(strings.Repeat(" ", width))
	}
	for col := 0; col < width; col++ {
		x := xMax * float64(col) / float64(width-1)
		y := c.At(x)
		r := int(math.Round(float64(height-1) * (1 - y)))
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		rows[r][col] = '*'
	}
	var b strings.Builder
	b.WriteString("  1.0 |" + string(rows[0]) + "\n")
	for r := 1; r < height-1; r++ {
		b.WriteString("      |" + string(rows[r]) + "\n")
	}
	b.WriteString("  0.0 |" + string(rows[height-1]) + "\n")
	b.WriteString("       " + strings.Repeat("-", width) + "\n")
	b.WriteString(fmt.Sprintf("       0%s%.2f\n", strings.Repeat(" ", width-8), xMax))
	return b.String()
}
