package dsp

import "testing"

func TestNextPow2(t *testing.T) {
	cases := []struct{ in, want int }{
		{0, 1}, {1, 1}, {2, 2}, {3, 4}, {4, 4}, {5, 8}, {1000, 1024}, {1024, 1024}, {1025, 2048},
	}
	for _, c := range cases {
		if got := NextPow2(c.in); got != c.want {
			t.Errorf("NextPow2(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestIsPow2(t *testing.T) {
	for _, n := range []int{1, 2, 4, 1024} {
		if !IsPow2(n) {
			t.Errorf("IsPow2(%d) = false", n)
		}
	}
	for _, n := range []int{0, -4, 3, 6, 1000} {
		if IsPow2(n) {
			t.Errorf("IsPow2(%d) = true", n)
		}
	}
}
