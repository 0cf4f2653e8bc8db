package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is one or two outliers, not a tail.
const minBeyond = 10

// tailLadder lists the percentiles a tail figure may be reported at,
// highest first. A fixed ladder keeps the reported percentile stable
// across runs whose sample counts differ slightly.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 75}

// missed stands in for a failed or refused operation's latency. It
// sorts above every real latency, so a failure counts as missing any
// limit, and it serializes as a finite (huge) number.
const missed = 1e9

// dist holds one run's latency samples in milliseconds. Failed
// operations enter as missed.
type dist struct {
	ms []float64
}

func (d *dist) add(ms float64) { d.ms = append(d.ms, ms) }
func (d *dist) fail()          { d.ms = append(d.ms, missed) }
func (d *dist) sorted() []float64 {
	s := append([]float64(nil), d.ms...)
	sort.Float64s(s)
	return s
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(float64(n)*p/100 - 1e-9))
	return n - rank
}

// tailPercentile is the highest ladder percentile with at least
// minBeyond samples above it. With too few samples for any tail it
// returns 50: the median is then the only figure the run supports.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// percentile returns the nearest-rank p-th percentile of sorted
// samples (0 for none).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(sorted))*p/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// summary is the median and tail of a dist with the tail's percentile
// and the sample count it rests on.
type summary struct {
	N       int
	P50     float64
	Tail    float64
	TailPct float64
}

func (d *dist) summary() summary {
	s := d.sorted()
	p := tailPercentile(len(s))
	return summary{N: len(s), P50: percentile(s, 50), Tail: percentile(s, p), TailPct: p}
}

// median of arbitrary values (0 for none).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// windows splits timed samples into consecutive windows of w seconds
// by completion time t (seconds since the phase began) and returns each
// full window's samples, sorted. A trailing partial window is dropped.
func windows(t, v []float64, w, phase float64) [][]float64 {
	n := int(phase / w)
	out := make([][]float64, n)
	for i, ti := range t {
		if k := int(ti / w); k >= 0 && k < n {
			out[k] = append(out[k], v[i])
		}
	}
	for _, s := range out {
		sort.Float64s(s)
	}
	return out
}

// windowMedian is the median over windows of f applied to each
// window's sorted samples: one bad second moves it by one rank, not
// the whole figure.
func windowMedian(ws [][]float64, f func(sorted []float64) float64) float64 {
	var per []float64
	for _, s := range ws {
		per = append(per, f(s))
	}
	return median(per)
}
