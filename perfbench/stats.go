package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p <= 100) of the
// attempted operations' latencies by the nearest-rank method. Failed
// operations count as +Inf: a request that failed or was refused
// misses every latency limit, so failures push percentiles up instead
// of vanishing from the sample.
func percentile(latencies []float64, failed int, p float64) float64 {
	n := len(latencies) + failed
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > len(latencies) {
		return math.Inf(1)
	}
	s := append([]float64(nil), latencies...)
	sort.Float64s(s)
	return s[rank-1]
}

// median returns the middle value (mean of the two middle values for
// an even count).
func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(v, n=4) does (its default "exclusive" method),
// which is how run-to-run spread is judged.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return math.NaN(), math.NaN()
	}
	at := func(i int) float64 {
		// Python: m = n+1; j = i*m // 4, clamped to 1..n-1; then
		// interpolate between s[j-1] and s[j] by delta = i*m - 4j.
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(median(v))
}

// worseBy returns how much worse the second set of runs is than the
// first, as a share of the first's median: positive means worse in the
// metric's own direction ("lower" or "higher" is better).
func worseBy(first, second []float64, better string) float64 {
	a, b := median(first), median(second)
	d := (b - a) / math.Abs(a)
	if better == "higher" {
		d = -d
	}
	return d
}
