package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of x.
func sorted(x []float64) []float64 {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	return s
}

// lo is the lower-half mean: the mean of the fastest ⌊n/2⌋ samples (the
// one sample when n = 1). Interference on a shared box only ever adds
// time, so the fast half of a run's samples is the part the machine's
// other tenants touched least; its mean moves 3–5× less from run to run
// than the median does (README.md, "Noise study"). NaN for no samples.
func lo(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	s := sorted(x)
	n := len(s) / 2
	if n == 0 {
		n = 1
	}
	var sum float64
	for _, v := range s[:n] {
		sum += v
	}
	return sum / float64(n)
}

// median is the middle sample, or the mean of the two middle ones. NaN
// for no samples.
func median(x []float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	s := sorted(x)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// p95 is the nearest-rank 95th percentile, reported only when at least
// ten samples lie beyond it (n ≥ 200) — below that it is one bad sample,
// not a tail.
func p95(x []float64) (float64, bool) {
	n := len(x)
	rank := int(math.Ceil(0.95 * float64(n)))
	if n-rank < 10 {
		return 0, false
	}
	return sorted(x)[rank-1], true
}

// machineFactor is how much slower than nominal the machine ran an op
// that is cpuShare compute and the rest hand-offs, given the run's
// median reference units: the geometric blend of the two units' ratios
// to their references. Timings are divided by it.
func machineFactor(cpuShare, cpuUnitMs, rttUnitMs float64) float64 {
	return math.Pow(cpuUnitMs/refCPUMs, cpuShare) * math.Pow(rttUnitMs/refRTTMs, 1-cpuShare)
}

// quartileSpread is the distance between the first and third quartile
// of x as a share of its median, with the quartiles of Python's
// statistics.quantiles(x, n=4) (exclusive method) — the spread the
// acceptance check of this benchmark is stated in.
func quartileSpread(x []float64) float64 {
	s := sorted(x)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(s)+1) / 4
		j := int(pos)
		frac := pos - float64(j)
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return (q(3) - q(1)) / median(x)
}
