package main

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
)

// gradMode selects how the per-worker gradients of a sync workload relate.
type gradMode int

const (
	// gradShared draws g_w = shared + noise_w: workers agree on where the
	// large entries are only partly, so their top-k index sets overlap
	// partially — the regime real data-parallel gradients live in.
	gradShared gradMode = iota
	// gradIndependent draws every worker's vector independently: top-k
	// index sets barely overlap, the worst case for SGA growth.
	gradIndependent
)

// genGrads builds the P seeded Gaussian gradient vectors of a sync
// workload. The program under test receives only these vectors; the same
// seed always yields the same bits.
func genGrads(seed int64, p, n int, mode gradMode) [][]float32 {
	grads := make([][]float32, p)
	var shared []float32
	if mode == gradShared {
		shared = gaussian(rand.New(rand.NewSource(seed)), n)
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0)) // one generator per core
	for w := range grads {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			g := gaussian(rand.New(rand.NewSource(seed*1000003+int64(w)+1)), n)
			for i, s := range shared {
				g[i] += s
			}
			grads[w] = g
		}(w)
	}
	wg.Wait()
	return grads
}

func gaussian(rng *rand.Rand, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// hashVec is a 64-bit FNV-1a over the vector's IEEE bit patterns, one word
// per step: equal hashes across ranks and backends mean bit-identical
// outputs (−0 vs +0 and NaN payloads included).
func hashVec(v []float32) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range v {
		h ^= uint64(math.Float32bits(x))
		h *= 1099511628211
	}
	return h
}

// sum64 and sumSq64 accumulate in float64 so the mass-conservation check
// measures the program's float32 arithmetic, not the checker's.
func sum64(v []float32) float64 {
	s := 0.0
	for _, x := range v {
		s += float64(x)
	}
	return s
}

func sumSq64(v []float32) float64 {
	s := 0.0
	for _, x := range v {
		s += float64(x) * float64(x)
	}
	return s
}

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
