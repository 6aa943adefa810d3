package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number. note carries what a reader must know to
// interpret it (sample count, a percentile downgrade, the spread of the
// repetitions behind a median).
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// spread is (max − min) / median of the repetitions.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) == 0 || m == 0 {
		return 0
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo, hi = min(lo, x), max(hi, x)
	}
	return (hi - lo) / m
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// tailQuantile is the highest percentile with at least ten samples beyond
// it, starting from p99: p99 needs 1000 samples, p95 200, p90 100.
func tailQuantile(n int) (q float64, label string) {
	switch {
	case n >= 1000:
		return 0.99, "p99"
	case n >= 200:
		return 0.95, "p95"
	case n >= 100:
		return 0.90, "p90"
	default:
		return 0.50, "p50"
	}
}

func sortedCopy(xs []int64) []int64 {
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// summary is what one repetition's latency samples reduce to.
type summary struct {
	n                         int
	p50, p75, p90, mean, tail float64 // nanoseconds
	tailLabel                 string  // which percentile tail is: p99 where n supports it
}

func summarize(samples []int64) summary {
	s := sortedCopy(samples)
	q, label := tailQuantile(len(s))
	return summary{
		n:         len(s),
		p50:       float64(quantile(s, 0.5)),
		p75:       float64(quantile(s, 0.75)),
		p90:       float64(quantile(s, 0.9)),
		mean:      mean(s),
		tail:      float64(quantile(s, q)),
		tailLabel: label,
	}
}

// overReps reduces the repetitions' summaries to the reported values: the
// median over repetitions of each statistic, scaled to the wanted unit. One
// repetition disturbed by the machine does not move a median of three.
func overReps(reps []summary, perUnit float64) (med summary, note, tailNote string) {
	var p50s, p75s, p90s, means, tails []float64
	smallest := reps[0]
	for _, r := range reps {
		p50s, p75s, p90s = append(p50s, r.p50/perUnit), append(p75s, r.p75/perUnit), append(p90s, r.p90/perUnit)
		means, tails = append(means, r.mean/perUnit), append(tails, r.tail/perUnit)
		if r.n < smallest.n {
			smallest = r
		}
	}
	note = fmt.Sprintf("median of %d repetitions, n>=%d each", len(reps), smallest.n)
	tailNote = note
	if smallest.tailLabel != "p99" {
		tailNote += fmt.Sprintf(": tail is %s (too few samples for p99)", smallest.tailLabel)
	}
	return summary{p50: median(p50s), p75: median(p75s), p90: median(p90s), mean: median(means), tail: median(tails)}, note, tailNote
}

func mean(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += float64(x)
	}
	return sum / float64(len(xs))
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// usage snapshots the counters whose deltas give per-event costs.
type usage struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func snapshotUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{at: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
