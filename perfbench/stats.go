package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted values by linear
// interpolation between closest ranks (NaN for no values).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median sorts a copy of values and returns its middle.
func median(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// ms, s and friends build metric values.
func ms(v float64) metric     { return metric{Value: v, Unit: "ms"} }
func sec(v float64) metric    { return metric{Value: v, Unit: "s"} }
func us(v float64) metric     { return metric{Value: v, Unit: "us"} }
func ns(v float64) metric     { return metric{Value: v, Unit: "ns"} }
func mb(v float64) metric     { return metric{Value: v, Unit: "MB"} }
func count(v float64) metric  { return metric{Value: v, Unit: "count"} }
func ratio(v float64) metric  { return metric{Value: v, Unit: "ratio"} }
func perSec(v float64) metric { return metric{Value: v, Unit: "1/s"} }
