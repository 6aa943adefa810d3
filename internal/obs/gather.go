package obs

import "github.com/gsalert/gsalert/internal/metrics"

// Sample is one scalar series value gathered from the registry — the
// structured twin of a WritePrometheus text line, consumed by the health
// rule engine (internal/health) and any other in-process evaluator that
// wants the catalog without round-tripping through the text format.
type Sample struct {
	Name   string
	Labels []Label
	Value  float64
}

// HistogramSample exposes one registered histogram series. The histogram
// pointer is the live lock-free instrument — callers may take quantiles
// (h.Quantile) or sweep buckets without copying; the types tolerate
// concurrent writers by design.
type HistogramSample struct {
	Name   string
	Labels []Label
	H      *metrics.LatencyHistogram
}

// Gather snapshots every registered series as structured samples: static
// counters/gauges are read, Collect callbacks run exactly as they do for a
// scrape, and histograms are returned as live handles. Like
// WritePrometheus, Gather costs nothing to the instrumented hot paths —
// all reads happen here, at gather time. Ordering is not significant;
// consumers match by name and labels.
func (r *Registry) Gather() ([]Sample, []HistogramSample) {
	fams, c := r.collect()
	var scalars []Sample
	var hists []HistogramSample
	for _, f := range fams {
		for _, s := range f.series {
			scalars = append(scalars, Sample{Name: f.name, Labels: s.labels, Value: s.read()})
		}
		for _, hs := range f.hists {
			hists = append(hists, HistogramSample{Name: f.name, Labels: hs.labels, H: hs.h})
		}
	}
	for name, cf := range c.families {
		for _, s := range cf.samples {
			scalars = append(scalars, Sample{Name: name, Labels: s.labels, Value: s.v})
		}
	}
	return scalars, hists
}
