package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: a p99 over fewer than 1000 samples rests on fewer than
// ten observations and is not reported as a p99.
const minBeyond = 10

// samples collects one timing series in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, ms(d)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the nearest-rank q-quantile (0 < q <= 1): the
// smallest sample with at least q·n samples at or below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	return s[min(max(rank, 1), len(s))-1]
}

// beyond is how many of n samples lie strictly above the nearest-rank
// q-quantile's position.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tail returns the q-quantile and whether it is supported by at least
// minBeyond samples beyond it.
func tail(xs []float64, q float64) (float64, bool) {
	return quantile(xs, q), beyond(len(xs), q) >= minBeyond
}

// median is the 0.5 quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
