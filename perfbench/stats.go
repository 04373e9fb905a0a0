package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of sorted by linear
// interpolation between closest ranks (the "R-7" rule also used by numpy's
// default), 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, n-1)
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// median sorts a copy of xs and returns its 0.5-quantile.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 0.5)
}

// beyond counts the samples of sorted strictly greater than v: the support
// a reported percentile has (a percentile is only reported when at least
// ten samples lie beyond it).
func beyond(sorted []float64, v float64) int {
	return len(sorted) - sort.Search(len(sorted), func(i int) bool { return sorted[i] > v })
}

// blockLen is the number of consecutive samples of one connection whose
// percentiles form one block figure. A block's p99 has ten samples beyond
// it, the least a reported percentile may have.
const blockLen = 1000

// summary is the percentile report of a sample set.
type summary struct {
	N      int     // samples
	Blocks int     // whole blocks of blockLen
	P50    float64 // median over blocks of the block's p50
	P99    float64 // median over blocks of the block's p99
	AllP50 float64 // percentiles over every sample pooled
	AllP99 float64
	// Beyond99 is the number of pooled samples above AllP99.
	Beyond99 int
}

// summarize reports parts (one sample series per connection, in completion
// order) both pooled and as the median over blocks of blockLen consecutive
// samples of one series. The block figures are the reported ones: a stall
// of the host moves the few blocks it falls in, not the run's figure, so
// they repeat from run to run where the pooled tail does not.
func summarize(parts ...[]float64) summary {
	var s summary
	var all, p50s, p99s []float64
	block := make([]float64, blockLen)
	for _, xs := range parts {
		all = append(all, xs...)
		for i := 0; i+blockLen <= len(xs); i += blockLen {
			copy(block, xs[i:i+blockLen])
			sort.Float64s(block)
			p50s = append(p50s, percentile(block, 0.50))
			p99s = append(p99s, percentile(block, 0.99))
		}
	}
	sort.Float64s(all)
	s.N, s.Blocks = len(all), len(p50s)
	s.P50, s.P99 = median(p50s), median(p99s)
	s.AllP50, s.AllP99 = percentile(all, 0.50), percentile(all, 0.99)
	s.Beyond99 = beyond(all, s.AllP99)
	return s
}
