package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// splitmix is a stateless hash for seeded random access: the same seed
// and index always give the same draw, whichever goroutine asks.
func splitmix(seed int64, i uint64) uint64 {
	z := uint64(seed) + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// subSeed derives an independent int64 seed for one input stream.
func subSeed(seed int64, stream, i int) int64 {
	return int64(splitmix(seed, uint64(stream)<<32|uint64(i)) >> 1)
}
