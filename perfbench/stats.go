package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail figure resting on fewer is noise, so it is called
// unresolved instead of being estimated.
const minBeyond = 10

// samples is a set of wall-clock observations of one quantity.
type samples []float64

// percentile returns the nearest-rank p-quantile (0 < p < 1) and whether it
// is resolved, i.e. at least minBeyond samples rank above it.
func (s samples) percentile(p float64) (float64, bool) {
	n := len(s)
	if n == 0 {
		return 0, false
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	idx := int(math.Ceil(p*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if n-1-idx < minBeyond {
		return 0, false
	}
	return sorted[idx], true
}

// minSamples returns the smallest sample count at which the p-quantile is
// resolved.
func minSamples(p float64) int {
	n := 1
	for {
		idx := int(math.Ceil(p*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		if n-1-idx >= minBeyond {
			return n
		}
		n++
	}
}

func (s samples) sum() float64 {
	t := 0.0
	for _, x := range s {
		t += x
	}
	return t
}

// mean returns the arithmetic mean, 0 for no samples.
func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	return s.sum() / float64(len(s))
}

// ratio is a quotient reported together with its base, so no figure is
// read without knowing what it was divided by.
type ratio struct {
	num, den         float64
	numName, denName string
}

func (r ratio) value() float64 {
	if r.den == 0 {
		return 0
	}
	return r.num / r.den
}

func (r ratio) String() string {
	return fmt.Sprintf("%s %.6g / %s %.6g", r.numName, r.num, r.denName, r.den)
}
