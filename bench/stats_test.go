package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = float64(n - i) // descending, so sorting is exercised
	}
	return x
}

func TestLo(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"n=1 is the sample", []float64{7}, 7},
		{"n=2 is the faster one", []float64{9, 3}, 3},
		{"n=3 takes one", []float64{5, 1, 9}, 1},
		{"n=4 takes two", []float64{8, 2, 4, 6}, 3},
		{"n=17 takes eight (raw_cold's compactions)", seq(17), 4.5},
		{"outliers in the slow half do not move it", []float64{1, 2, 3, 1000, 2000, 3000}, 2},
	}
	for _, c := range cases {
		if got := lo(c.in); got != c.want {
			t.Errorf("%s: lo = %v, want %v", c.name, got, c.want)
		}
	}
	if !math.IsNaN(lo(nil)) {
		t.Error("lo of no samples should be NaN")
	}
	in := []float64{3, 1, 2}
	lo(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("lo reordered its input: %v", in)
	}
}

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{[]float64{7}, 7},
		{[]float64{9, 3}, 6},
		{[]float64{5, 1, 9}, 5},
		{seq(17), 9},
		{seq(18), 9.5},
	}
	for _, c := range cases {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples should be NaN")
	}
}

func TestP95(t *testing.T) {
	cases := []struct {
		n    int
		ok   bool
		want float64
	}{
		{1, false, 0},
		{17, false, 0},
		{199, false, 0}, // rank 190: nine samples beyond
		{200, true, 190},
		{1000, true, 950},
	}
	for _, c := range cases {
		got, ok := p95(seq(c.n))
		if ok != c.ok || got != c.want {
			t.Errorf("p95 of %d samples = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestMachineFactor(t *testing.T) {
	if got := machineFactor(computeShare, refCPUMs, refRTTMs); got != 1 {
		t.Errorf("units at their references must leave readings alone, factor %v", got)
	}
	// Both units 25 % slow: every blend says 1.25.
	for _, share := range []float64{0, handoffShare, computeShare, 1} {
		if got := machineFactor(share, 1.25*refCPUMs, 1.25*refRTTMs); math.Abs(got-1.25) > 1e-12 {
			t.Errorf("share %v: factor %v, want 1.25", share, got)
		}
	}
	// The slow regime: compute +26 %, hand-offs +54 %. A compute-bound op
	// is taken to be ~35 % slower, a hand-off-bound one ~39 %.
	if got := machineFactor(computeShare, 1.26*refCPUMs, 1.54*refRTTMs); math.Abs(got-1.347) > 1e-3 {
		t.Errorf("compute factor in the slow regime = %v", got)
	}
	if got := machineFactor(handoffShare, 1.26*refCPUMs, 1.54*refRTTMs); math.Abs(got-1.393) > 1e-3 {
		t.Errorf("hand-off factor in the slow regime = %v", got)
	}
	if machineFactor(1, 5, 99) != 5/refCPUMs || machineFactor(0, 99, 1.5) != 1.5/refRTTMs {
		t.Error("a share of 1 or 0 must use one unit alone")
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) = [2.75, 5.5, 8.25].
	if got, want := quartileSpread(seq(10)), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) = [1.5, 4.0, 12.0].
	if got, want := quartileSpread([]float64{16, 1, 8, 2, 4}), (12-1.5)/4; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(powers of two) = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{3, 3, 3}); got != 0 {
		t.Errorf("equal samples have spread %v, want 0", got)
	}
}
