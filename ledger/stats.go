package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the number of samples that must lie above a percentile before
// the ledger reports it: a tail estimated from fewer points is noise.
const minBeyond = 10

// tailLevels are the percentiles a timing summary may report, highest first.
var tailLevels = []float64{0.999, 0.99, 0.9}

// samples collects one operation kind's latencies.
type samples struct {
	ms     []float64
	sorted bool
}

func (s *samples) add(d time.Duration) {
	s.ms = append(s.ms, float64(d.Nanoseconds())/1e6)
	s.sorted = false
}

func (s *samples) n() int { return len(s.ms) }

func (s *samples) sortOnce() []float64 {
	if !s.sorted {
		sort.Float64s(s.ms)
		s.sorted = true
	}
	return s.ms
}

// rankIndex is the 0-based nearest-rank index of quantile q among n samples.
func rankIndex(n int, q float64) int {
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// supports reports whether n samples leave at least minBeyond of them above
// the q-quantile.
func supports(n int, q float64) bool {
	return n > 0 && n-1-rankIndex(n, q) >= minBeyond
}

// quantile returns the nearest-rank q-quantile. It refuses a tail quantile
// the sample cannot support (the median is always supported by one sample).
func (s *samples) quantile(q float64) (float64, error) {
	if s.n() == 0 {
		return 0, fmt.Errorf("no samples")
	}
	if q > 0.5 && !supports(s.n(), q) {
		return 0, fmt.Errorf("p%s needs %d samples beyond it; %d samples leave %d",
			pctLabel(q), minBeyond, s.n(), s.n()-1-rankIndex(s.n(), q))
	}
	return s.sortOnce()[rankIndex(s.n(), q)], nil
}

// summary is a timing as the ledger reports it: the median and the highest
// percentile with at least minBeyond samples beyond it, with the count.
type summary struct {
	N      int     `json:"n"`
	P50ms  float64 `json:"p50_ms"`
	Tail   string  `json:"tail,omitempty"` // e.g. "p99"; empty when no tail is supported
	TailMS float64 `json:"tail_ms,omitempty"`
}

func (s *samples) summarize() summary {
	if s.n() == 0 {
		return summary{}
	}
	p50, _ := s.quantile(0.5) // the median of a non-empty sample always exists
	out := summary{N: s.n(), P50ms: p50}
	for _, q := range tailLevels {
		if supports(s.n(), q) {
			out.Tail = "p" + pctLabel(q)
			out.TailMS = s.sortOnce()[rankIndex(s.n(), q)]
			break
		}
	}
	return out
}

func (s summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	if s.Tail == "" {
		return fmt.Sprintf("n=%d p50=%.4fms (no supported tail)", s.N, s.P50ms)
	}
	return fmt.Sprintf("n=%d p50=%.4fms %s=%.4fms", s.N, s.P50ms, s.Tail, s.TailMS)
}

func pctLabel(q float64) string {
	return fmt.Sprintf("%g", math.Round(q*1000)/10)
}

// median returns the median of xs (the mean of the middle pair when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	m := len(c) / 2
	if len(c)%2 == 1 {
		return c[m]
	}
	return (c[m-1] + c[m]) / 2
}
