package main

import (
	"fmt"
	"math"
	"sort"
)

// percentile returns the exact nearest-rank p-th percentile (0 < p <=
// 100) of xs: the smallest sample with at least p% of the samples at
// or below it. It returns NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile picks the highest of p90, p99 and p99.9 that still has
// at least ten samples beyond it, or 0 when even p90 has fewer.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range []float64{90, 99, 99.9} {
		if float64(n)*(1-p/100) >= 10 {
			best = p
		}
	}
	return best
}

// latencyLines renders a sample set as its median and its highest
// well-supported tail percentile, each with the sample count. A
// percentile is printed only when at least ten samples lie beyond it.
func latencyLines(name string, xs []float64) []string {
	n := len(xs)
	if n < 20 {
		return []string{fmt.Sprintf("%-34s %14d %-6s (under 20 samples: no percentiles)", name+"_samples", n, "count")}
	}
	out := []string{fmt.Sprintf("%-34s %14.4f %-6s n=%d", name+"_p50", percentile(xs, 50), "ms", n)}
	if p := tailPercentile(n); p > 0 {
		out = append(out, fmt.Sprintf("%-34s %14.4f %-6s n=%d", fmt.Sprintf("%s_p%g", name, p), percentile(xs, p), "ms", n))
	}
	return out
}
