package main

import (
	"math"
	"sort"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// tailPercentile returns the highest of the reported percentiles that
// has at least minTail of n samples beyond it (0 when n is too small
// for even the median to qualify).
func tailPercentile(n int) float64 {
	for _, p := range []float64{99.9, 99, 90, 50} {
		if float64(n)*(1-p/100) >= minTail-1e-9 {
			return p
		}
	}
	return 0
}

// percentile is the nearest-rank percentile of xs (sorted in place): the
// smallest sample with at least p% of the samples at or below it.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return percentile(append([]float64(nil), xs...), 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// segment is one timed stretch of a run: the latencies (ms) of its
// requests or jobs and of its denials, how late the load generator
// released each request, and the share of CPU the hypervisor stole
// meanwhile.
type segment struct {
	lat, deny, late []float64
	jobs            int
	elapsed         time.Duration
	steal           float64
}

// maxSteal is the share of the CPU time a segment asked for that the
// hypervisor may steal before the segment counts as disturbed.
const maxSteal = 0.05

// maxRerun is how many disturbed segments a phase sets aside and runs
// again, so that a run on a host that is busy throughout still ends on
// time.
const maxRerun = 4

// cleanest runs segments until want of them are clean (steal at most
// maxSteal) or maxRerun more than want have run, and returns the want
// least stolen.
func cleanest(want int, run func(i int) (segment, error)) ([]segment, error) {
	var segs []segment
	clean := 0
	for i := 0; i < want || (clean < want && i < want+maxRerun); i++ {
		s, err := run(i)
		if err != nil {
			return nil, err
		}
		segs = append(segs, s)
		if s.steal <= maxSteal {
			clean++
		}
	}
	sort.SliceStable(segs, func(a, b int) bool { return segs[a].steal < segs[b].steal })
	return segs[:want], nil
}

// pool joins the samples of segments into one.
func pool(segs []segment) segment {
	var all segment
	for _, s := range segs {
		all.lat = append(all.lat, s.lat...)
		all.deny = append(all.deny, s.deny...)
		all.late = append(all.late, s.late...)
		all.jobs += s.jobs
		all.elapsed += s.elapsed
		all.steal = max(all.steal, s.steal)
	}
	return all
}

// peakBacklog is the largest number of requests that were due but not
// yet sent at any instant, from each request's due and send times.
func peakBacklog(due, sent []time.Duration) int {
	type ev struct {
		at    time.Duration
		delta int
	}
	evs := make([]ev, 0, 2*len(due))
	for i := range due {
		evs = append(evs, ev{due[i], +1}, ev{sent[i], -1})
	}
	// At equal instants, sends leave before dues arrive: a request sent
	// the moment it is due was never waiting.
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].at != evs[j].at {
			return evs[i].at < evs[j].at
		}
		return evs[i].delta < evs[j].delta
	})
	cur, peak := 0, 0
	for _, e := range evs {
		cur += e.delta
		peak = max(peak, cur)
	}
	return peak
}
