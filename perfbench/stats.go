package main

import (
	"math"
	"sort"

	"spjoin/internal/join"
)

// ref is an op's expected output: the candidate count and an
// order-sensitive digest of the sorted (R, S) id sequence.
type ref struct {
	n      int
	digest uint64
}

// refOf digests a candidate sequence (FNV-1a over 64-bit pair keys).
func refOf(cands []join.Candidate) ref {
	h := uint64(14695981039346656037)
	for _, c := range cands {
		h ^= uint64(uint32(c.R))<<32 | uint64(uint32(c.S))
		h *= 1099511628211
	}
	return ref{n: len(cands), digest: h}
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// median of v; 0 for an empty slice.
func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	s := sorted(v)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile of v.
func percentile(v []float64, p int) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	k := int(math.Ceil(float64(p) * float64(len(s)) / 100))
	return s[min(max(k, 1), len(s))-1]
}

// tailPercentile is the highest whole percentile that leaves at least ten
// of n samples beyond it, and never below the median.
func tailPercentile(n int) int {
	if n <= 10 {
		return 50
	}
	return max(100*(n-10)/n, 50)
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// maxOverMean is the load-balance skew of per-worker amounts: 1.0 when
// balanced, 0 when nothing was measured.
func maxOverMean(v []float64) float64 {
	m := mean(v)
	if m <= 0 {
		return 0
	}
	hi := v[0]
	for _, x := range v[1:] {
		hi = max(hi, x)
	}
	return hi / m
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
