package main

import (
	"sort"
	"sync"
	"time"
)

// samples is a goroutine-safe list of durations.
type samples struct {
	mu sync.Mutex
	d  []time.Duration
}

func (s *samples) add(d time.Duration) {
	s.mu.Lock()
	s.d = append(s.d, d)
	s.mu.Unlock()
}

func (s *samples) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.d)
}

// quantileMS returns the q-quantile in milliseconds (nearest rank), or
// 0 with no samples.
func (s *samples) quantileMS(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return quantileMS(s.d, q)
}

func quantileMS(d []time.Duration, q float64) float64 {
	if len(d) == 0 {
		return 0
	}
	c := append([]time.Duration(nil), d...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	i := int(q*float64(len(c)-1) + 0.5)
	return ms(c[i])
}

func medianMS(d []time.Duration) float64 { return quantileMS(d, 0.5) }

// medianF is the median of v, or 0 when v is empty.
func medianF(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	c := append([]float64(nil), v...)
	sort.Float64s(c)
	return c[(len(c)-1)/2]/2 + c[len(c)/2]/2
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// timeIt runs f and returns its wall time.
func timeIt(f func() error) (time.Duration, error) {
	t0 := time.Now()
	err := f()
	return time.Since(t0), err
}
