package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"time"

	"github.com/gsalert/gsalert/internal/delivery"
	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/metrics"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/qos"
)

// The population's fixed shape: zipf skew 1.07 (≈ web-like popularity)
// over value offset 1, and every 50th subscriber (2%) registered as a
// DIGEST composite wrapper instead of a primitive profile.
const (
	loadZipfS          = 1.07
	loadZipfV          = 1
	loadCompositeEvery = 50
)

// LoadConfig shapes a zipfian workload: a large subscriber population whose
// topic interests follow a zipf distribution, and a publish stream whose
// event topics follow the same distribution — hot topics have both the most
// subscribers and the most traffic, the shape real alerting deployments
// show.
type LoadConfig struct {
	// Seed drives every random draw (reproducibility).
	Seed int64
	// Profiles is the subscriber-population size (one profile each).
	Profiles int
	// Topics is the topic-vocabulary size (dc.Subject values).
	Topics int
	// Collection is the watched collection qname ("host.name").
	Collection string
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Profiles <= 0 {
		c.Profiles = 1000
	}
	if c.Topics <= 0 {
		c.Topics = 100
	}
	return c
}

// LoadGen generates the population and the publish stream. Construct one
// per run; the zipf draws are consumed in a fixed order (population first,
// then events), so two runs from the same config are identical.
type LoadGen struct {
	cfg   LoadConfig
	qname event.QName
	rng   *rand.Rand
	zipf  *rand.Zipf
	// exprs caches the parsed profile expression per topic: the population
	// holds Topics distinct expressions, not Profiles.
	exprs map[int]profile.Expr
	base  time.Time
}

// NewLoadGen validates the config and seeds the generator.
func NewLoadGen(cfg LoadConfig) (*LoadGen, error) {
	cfg = cfg.withDefaults()
	host, coll, ok := strings.Cut(cfg.Collection, ".")
	if !ok || host == "" || coll == "" {
		return nil, fmt.Errorf("sim: loadgen collection %q is not a host.name qname", cfg.Collection)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	return &LoadGen{
		cfg:   cfg,
		qname: event.QName{Host: host, Collection: coll},
		rng:   rng,
		zipf:  rand.NewZipf(rng, loadZipfS, loadZipfV, uint64(cfg.Topics-1)),
		exprs: make(map[int]profile.Expr, cfg.Topics),
		base:  time.Unix(1_120_000_000, 0), // fixed epoch: identical runs build identical events
	}, nil
}

// Topic draws the next zipf-distributed topic index.
func (g *LoadGen) Topic() int { return int(g.zipf.Uint64()) }

// TopicName renders a topic index as its dc.Subject value.
func TopicName(t int) string { return fmt.Sprintf("t%03d", t) }

func (g *LoadGen) exprFor(topic int) profile.Expr {
	e, ok := g.exprs[topic]
	if !ok {
		e = profile.MustParse(fmt.Sprintf(`collection = "%s" AND dc.Subject = "%s"`,
			g.cfg.Collection, TopicName(topic)))
		g.exprs[topic] = e
	}
	return e
}

// classFor weights the QoS classes 1/2/1 realtime/normal/bulk across the
// population. Assignment is round-robin over that pattern, so class
// proportions are exact and independent of the random stream.
func classFor(i int) qos.Class {
	switch i % 4 {
	case 0:
		return qos.ClassRealtime
	case 3:
		return qos.ClassBulk
	default:
		return qos.ClassNormal
	}
}

// Populate registers the subscriber population round-robin across the named
// servers: mostly primitive QoS-classed topic profiles, with every
// loadCompositeEvery-th registered as a DIGEST composite wrapper. Returns
// the number of live profiles registered.
func (g *LoadGen) Populate(c *Cluster, servers []string) (int, error) {
	if len(servers) == 0 {
		return 0, fmt.Errorf("sim: loadgen has no servers to populate")
	}
	live := 0
	for i := 0; i < g.cfg.Profiles; i++ {
		srv := servers[i%len(servers)]
		svc := c.Service(srv)
		if svc == nil {
			return live, fmt.Errorf("sim: loadgen: unknown server %q", srv)
		}
		topic := g.Topic()
		subscriber := fmt.Sprintf("z%07d", i)
		if i%loadCompositeEvery == loadCompositeEvery-1 {
			src := fmt.Sprintf(`DIGEST (collection = "%s" AND dc.Subject = "%s") EVERY 1h`,
				g.cfg.Collection, TopicName(topic))
			if _, err := svc.SubscribeComposite(subscriber, src); err != nil {
				return live, fmt.Errorf("sim: loadgen composite %d: %w", i, err)
			}
		} else {
			p := profile.NewUser(fmt.Sprintf("zp%07d", i), subscriber, srv, g.exprFor(topic))
			p.Class = classFor(i)
			if err := svc.SubscribeProfile(p); err != nil {
				return live, fmt.Errorf("sim: loadgen profile %d: %w", i, err)
			}
		}
		live++
	}
	return live, nil
}

// Event builds the i-th publish event of a round: one documents-added event
// for the watched collection, its document tagged with a zipf-drawn topic.
// IDs are deterministic, so a chaos run and its failure-free baseline emit
// identical event streams.
func (g *LoadGen) Event(round, i int) *event.Event {
	topic := g.Topic()
	id := fmt.Sprintf("ev-r%03d-%02d", round, i)
	return event.New(id, event.TypeDocumentsAdded, g.qname, round+1,
		[]event.DocRef{{
			ID:       fmt.Sprintf("doc-r%03d-%02d", round, i),
			Metadata: map[string][]string{"dc.Subject": {TopicName(topic)}},
		}},
		g.base.Add(time.Duration(round)*time.Minute+time.Duration(i)*time.Second))
}

// SLOReport is one class row of the per-class latency SLO evaluation.
type SLOReport struct {
	Class string
	// Delivered sums the class's delivered notifications across services.
	Delivered int64
	// P50 and P99 are merged end-to-end delivery latency quantiles across
	// every service's class histogram (bucket upper bounds, exact within 2x).
	P50, P99 time.Duration
	// Bound is the configured p99 SLO (0 = untracked) and OK whether the
	// class meets it (vacuously true with no samples).
	Bound time.Duration
	OK    bool
}

// mergedQuantile computes a quantile across several LatencyHistograms by
// merging their per-bucket counts (bucket bounds are shared — power-of-two
// nanoseconds), preserving the single-histogram guarantee: the reported
// value is the upper bound of the bucket holding the nearest-rank sample.
func mergedQuantile(hists []*metrics.LatencyHistogram, q float64) time.Duration {
	merged := make(map[time.Duration]int64)
	var total int64
	for _, h := range hists {
		var prev int64
		h.Buckets(func(upper time.Duration, cumulative int64) {
			merged[upper] += cumulative - prev
			prev = cumulative
		})
		total += prev
	}
	if total == 0 {
		return 0
	}
	uppers := make([]time.Duration, 0, len(merged))
	for u := range merged {
		uppers = append(uppers, u)
	}
	slices.Sort(uppers)
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, u := range uppers {
		seen += merged[u]
		if seen >= rank {
			return u
		}
	}
	return uppers[len(uppers)-1]
}

// ClassSLOReports evaluates per-class delivery-latency SLOs across a set of
// delivery pipelines' metrics, merging each class's histograms
// cluster-wide.
func ClassSLOReports(pipes []*delivery.Metrics, slo map[qos.Class]time.Duration) []SLOReport {
	out := make([]SLOReport, 0, qos.NumClasses)
	for c := 0; c < qos.NumClasses; c++ {
		class := qos.Class(c)
		var hists []*metrics.LatencyHistogram
		var delivered int64
		for _, m := range pipes {
			hists = append(hists, &m.ClassLatency[class])
			delivered += m.DeliveredByClass[class].Value()
		}
		r := SLOReport{
			Class:     class.String(),
			Delivered: delivered,
			P50:       mergedQuantile(hists, 0.5),
			P99:       mergedQuantile(hists, 0.99),
			Bound:     slo[class],
			OK:        true,
		}
		if r.Bound > 0 && r.P99 > r.Bound {
			r.OK = false
		}
		out = append(out, r)
	}
	return out
}
