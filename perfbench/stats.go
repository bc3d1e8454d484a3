package main

import (
	"fmt"
	"sort"
	"time"
)

// dist describes one sample set: its median, the most extreme percentile
// that still has at least ten samples beyond it, and the sample count.
type dist struct {
	Median    float64 `json:"median"`
	Tail      string  `json:"tail,omitempty"`
	TailValue float64 `json:"tail_value,omitempty"`
	N         int     `json:"n"`
}

// Candidate tail percentiles, most extreme first. A latency's bad tail is
// high; a rate's bad tail is low.
var (
	highTails = []float64{99.9, 99, 95, 90, 75}
	lowTails  = []float64{0.1, 1, 5, 10, 25}
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile interpolates linearly between the closest ranks of an ascending
// sample set; q is in [0, 1].
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// describe summarises xs; higherBetter selects the low tail (rates) instead
// of the high tail (latencies).
func describe(xs []float64, higherBetter bool) *dist {
	s := sorted(xs)
	d := &dist{Median: quantile(s, 0.5), N: len(s)}
	tails := highTails
	if higherBetter {
		tails = lowTails
	}
	for _, p := range tails {
		beyond := p / 100
		if !higherBetter {
			beyond = 1 - p/100
		}
		if float64(len(s))*beyond >= 10 {
			d.Tail = fmt.Sprintf("p%g", p)
			d.TailValue = quantile(s, p/100)
			break
		}
	}
	return d
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func us(ns float64) float64 { return ns / 1e3 }
