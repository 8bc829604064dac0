package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so one slow set-up does not move the metric.
const setupRepeats = 3

// percentile is the nearest-rank p-th percentile of xs (0 for no samples).
// Failed operations enter as +Inf, so they count as missing any limit.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms and us convert a duration to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// repeatSetup builds the workload setupRepeats times, timing each build,
// keeps the last one and releases the others.
func repeatSetup[S any](build func() (S, error), release func(S)) (S, []float64, error) {
	var (
		st    S
		times []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			release(st)
		}
		runtime.GC()
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return st, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		st = s
	}
	return st, times, nil
}

// mallocs is the process's cumulative heap allocation count.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
