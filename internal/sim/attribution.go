package sim

import (
	"math"
	"slices"
	"sort"
	"time"

	"github.com/gsalert/gsalert/internal/trace"
)

// StageAttribution is one QoS class's share of a traced soak's latency
// attribution: where the class's end-to-end delivery latency is spent,
// stage by stage, aggregated over every traced notify chain. Replica-apply
// spans are side branches of the trace tree (they never parent a notify
// leaf), so they carry no share of end-to-end delivery latency.
type StageAttribution struct {
	Class   string
	Samples int
	// E2EP50 and E2EP99 are nearest-rank quantiles of the chains'
	// end-to-end latency (publish-root start → notify end).
	E2EP50, E2EP99 time.Duration
	// Stage maps stage name → total time attributed to that stage across
	// the class's chains; Share is the same as a fraction of TotalE2E.
	Stage map[string]time.Duration
	Share map[string]float64
	// TotalE2E sums end-to-end latency across the chains; StageSum sums
	// the per-stage attributions. PathSamples attributes gap-by-gap, so
	// the two agree up to negative-gap clamping — SumError is the check.
	TotalE2E, StageSum time.Duration
}

// SumError is the relative disagreement between the summed per-stage
// attributions and the summed end-to-end latencies — the E16 acceptance
// bar requires it within 10%.
func (a StageAttribution) SumError() float64 {
	if a.TotalE2E == 0 {
		return 0
	}
	diff := float64(a.TotalE2E - a.StageSum)
	if diff < 0 {
		diff = -diff
	}
	return diff / float64(a.TotalE2E)
}

// AttributionReports aggregates notify-chain path samples into per-class
// stage attributions, ordered realtime → normal → bulk (then any other
// class labels alphabetically).
func AttributionReports(samples []trace.PathSample) []StageAttribution {
	byClass := make(map[string]*StageAttribution)
	e2es := make(map[string][]time.Duration)
	for _, s := range samples {
		class := s.Class
		if class == "" {
			class = "unclassified"
		}
		a := byClass[class]
		if a == nil {
			a = &StageAttribution{
				Class: class,
				Stage: make(map[string]time.Duration),
				Share: make(map[string]float64),
			}
			byClass[class] = a
		}
		a.Samples++
		a.TotalE2E += s.E2E
		e2es[class] = append(e2es[class], s.E2E)
		for stage, d := range s.Stages {
			a.Stage[stage] += d
			a.StageSum += d
		}
	}
	classRank := map[string]int{"realtime": 0, "normal": 1, "bulk": 2}
	out := make([]StageAttribution, 0, len(byClass))
	for class, a := range byClass {
		ds := e2es[class]
		slices.Sort(ds)
		a.E2EP50 = quantileNearestRank(ds, 0.5)
		a.E2EP99 = quantileNearestRank(ds, 0.99)
		if a.TotalE2E > 0 {
			for stage, d := range a.Stage {
				a.Share[stage] = float64(d) / float64(a.TotalE2E)
			}
		}
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		ri, iKnown := classRank[out[i].Class]
		rj, jKnown := classRank[out[j].Class]
		switch {
		case iKnown && jKnown:
			return ri < rj
		case iKnown != jKnown:
			return iKnown
		default:
			return out[i].Class < out[j].Class
		}
	})
	return out
}

// quantileNearestRank returns the q-quantile of sorted durations by the
// nearest-rank method (rank ⌈q·n⌉, so p99 of a small sample reports the
// maximum rather than under-reading it).
func quantileNearestRank(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}
