// Package obs is the observability layer: a metric registry with
// Prometheus text-format exposition, catalog wiring for every subsystem
// (core service, delivery pipeline, QoS admission, GDS directory nodes,
// HTTP transport, Go runtime), and a self-monitoring push exporter modeled
// on the VictoriaMetrics-importer pipeline (collect → compress → bounded
// queue → one sender with retry/backoff).
//
// The registry is deliberately scrape-time-pull: hot paths keep the
// lock-free types of internal/metrics (Counter, LatencyHistogram) and pay
// nothing for being observable — the registry holds read functions and
// histogram pointers and reads them only when /metrics is scraped or the
// exporter collects. Registration is startup-time wiring; invalid names,
// duplicate series and kind conflicts panic immediately rather than
// producing an exposition a Prometheus scraper would reject at 3 a.m.
//
// Every family is declared exactly once as a Desc (name, help, kind); the
// table of declarations is also what health.ParseRules validates against.
// Three registration shapes, each taking the family's Desc, cover every
// producer:
//
//   - Func/CounterValue: one static counter or gauge series backed by a
//     read func (an atomic gauge, a len()) or a *metrics.Counter.
//   - Histogram: one static series backed by a *metrics.LatencyHistogram,
//     rendered as a real Prometheus histogram (cumulative `_bucket` lines
//     over the power-of-two buckets, `_sum`, `_count`).
//   - Collect: a callback run per scrape that Emits samples with dynamic
//     label sets (per-shard queue depths, per-link digest sizes) or many
//     samples from one snapshot call (core.ServiceStats).
//
// See docs/OBSERVABILITY.md for the full metric catalog and deployment
// walkthrough.
package obs

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/gsalert/gsalert/internal/metrics"
)

// Label is one name/value pair attached to a series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Kind is the exposition type of a family. Health rules constrain their
// selectors by it: quantiles need a histogram, rates a counter.
type Kind uint8

// Family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind-%d", int(k))
	}
}

// Desc declares one metric family: the single place its name, help text
// and kind are written.
type Desc struct {
	Name string
	Help string
	Kind Kind
}

// declared is the process-wide table of families: filled by package-level
// Declare calls (here and in internal/health), read-only afterwards.
var declared = map[string]*Desc{}

// Declare adds a family to the catalog and returns its Desc. It is for
// package-level var initialisers only; by convention a counter's name ends
// in `_total` (or `_seconds_total` for accumulated durations).
func Declare(k Kind, name, help string) *Desc {
	validate(name, nil)
	if declared[name] != nil {
		panic(fmt.Sprintf("obs: metric %s declared twice", name))
	}
	d := &Desc{Name: name, Help: help, Kind: k}
	declared[name] = d
	return d
}

// Declared maps every declared family name to its kind — the catalog rule
// files are validated against. A family may be declared yet absent from a
// given process's registry (gds-server has no delivery pipeline).
func Declared() map[string]Kind {
	m := make(map[string]Kind, len(declared))
	for name, d := range declared {
		m[name] = d.Kind
	}
	return m
}

// series is one static scalar series.
type series struct {
	key    string // canonical label block, the sort/dedup key
	labels []Label
	read   func() float64
}

// histSeries is one static histogram series.
type histSeries struct {
	key    string
	labels []Label
	h      *metrics.LatencyHistogram
}

// family groups every series sharing one metric name.
type family struct {
	name string
	help string
	kind Kind
	// static series, sorted lazily at render time.
	series []series
	hists  []histSeries
}

// Registry holds metric families and renders them in Prometheus text
// format. All methods are safe for concurrent use; WritePrometheus may run
// while registered read funcs' underlying counters are being written (the
// lock-free types of internal/metrics tolerate that by design).
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []func(*Collector)
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var (
	metricNameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelNameRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// validate panics on names a Prometheus scraper would reject — wiring bugs
// must fail at startup, not at scrape time.
func validate(name string, labels []Label) {
	if !metricNameRe.MatchString(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	for _, l := range labels {
		if !labelNameRe.MatchString(l.Name) {
			panic(fmt.Sprintf("obs: metric %s: invalid label name %q", name, l.Name))
		}
		if l.Name == "le" {
			panic(fmt.Sprintf("obs: metric %s: label name \"le\" is reserved for histogram buckets", name))
		}
	}
}

// labelKey renders labels as the canonical `{a="b",c="d"}` block ("" when
// unlabelled). Labels are sorted by name so registration order never leaks
// into the exposition.
func labelKey(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue applies the text-format escapes: backslash, double
// quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp applies the HELP-line escapes: backslash and newline.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// familyOf fetches or creates d's family, panicking on kind conflicts.
func (r *Registry) familyOf(d *Desc) *family {
	f := r.families[d.Name]
	if f == nil {
		f = &family{name: d.Name, help: d.Help, kind: d.Kind}
		r.families[d.Name] = f
		return f
	}
	if f.kind != d.Kind {
		panic(fmt.Sprintf("obs: metric %s registered as both %s and %s", d.Name, f.kind, d.Kind))
	}
	return f
}

// newSeries finds (or creates) d's family and checks, under r.mu, that the
// label set is new to it; duplicate series panic.
func (r *Registry) newSeries(d *Desc, labels []Label) (*family, string) {
	validate(d.Name, labels)
	key := labelKey(labels)
	f := r.familyOf(d)
	for _, s := range f.series {
		if s.key == key {
			panic(fmt.Sprintf("obs: duplicate series %s%s", d.Name, key))
		}
	}
	for _, s := range f.hists {
		if s.key == key {
			panic(fmt.Sprintf("obs: duplicate series %s%s", d.Name, key))
		}
	}
	return f, key
}

// Func registers one static counter or gauge series of family d, read at
// scrape time.
func (r *Registry) Func(d *Desc, read func() float64, labels ...Label) {
	if d.Kind == KindHistogram {
		panic(fmt.Sprintf("obs: metric %s is a histogram; register it with Histogram", d.Name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, key := r.newSeries(d, labels)
	f.series = append(f.series, series{key: key, labels: labels, read: read})
}

// CounterValue registers a series backed directly by a lock-free
// metrics.Counter.
func (r *Registry) CounterValue(d *Desc, c *metrics.Counter, labels ...Label) {
	r.Func(d, func() float64 { return float64(c.Value()) }, labels...)
}

// Histogram registers a latency histogram series. It renders as a real
// Prometheus histogram — cumulative `_bucket{le="..."}` lines over the
// occupied power-of-two buckets (bounds in seconds), `_sum` and `_count` —
// so PromQL `histogram_quantile` works against it.
func (r *Registry) Histogram(d *Desc, h *metrics.LatencyHistogram, labels ...Label) {
	if d.Kind != KindHistogram {
		panic(fmt.Sprintf("obs: metric %s is a %s, not a histogram", d.Name, d.Kind))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f, key := r.newSeries(d, labels)
	f.hists = append(f.hists, histSeries{key: key, labels: labels, h: h})
}

// Collect registers a callback run on every scrape. Use it for series whose
// label sets are dynamic (per-link tables, per-shard depths) or when many
// samples derive from one snapshot call.
func (r *Registry) Collect(fn func(*Collector)) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// Collector accumulates one scrape's dynamic samples.
type Collector struct {
	families map[string]*collFamily
}

type collFamily struct {
	help    string
	kind    Kind
	samples []collSample
}

type collSample struct {
	key    string
	labels []Label
	v      float64
}

// Emit adds one counter or gauge sample of family d to this scrape.
func (c *Collector) Emit(d *Desc, v float64, labels ...Label) {
	if d.Kind == KindHistogram {
		panic(fmt.Sprintf("obs: metric %s is a histogram; register it with Histogram", d.Name))
	}
	validate(d.Name, labels)
	f := c.families[d.Name]
	if f == nil {
		f = &collFamily{help: d.Help, kind: d.Kind}
		c.families[d.Name] = f
	} else if f.kind != d.Kind {
		panic(fmt.Sprintf("obs: metric %s collected as both %s and %s", d.Name, f.kind, d.Kind))
	}
	f.samples = append(f.samples, collSample{key: labelKey(labels), labels: labels, v: v})
}

// formatValue renders a sample value: integers exactly, floats in the
// shortest round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered family in Prometheus text
// format (families and series in deterministic sorted order).
func (r *Registry) WritePrometheus(w io.Writer) error { return r.write(w, false) }

// WriteOpenMetrics renders the same exposition with the OpenMetrics
// extras: exemplar annotations (`# {trace_id="..."} <bound>`) on histogram
// bucket lines whose bucket retained a sampled trace ID, and the `# EOF`
// terminator. Series names, values and ordering are byte-identical to the
// text format otherwise, so the two variants diff only in annotations.
// Handler negotiates between them on the Accept header.
func (r *Registry) WriteOpenMetrics(w io.Writer) error { return r.write(w, true) }

// collect snapshots the static families and runs every Collect callback:
// the one read pass behind the text exposition and Gather. Reads happen
// outside the lock so a slow read func cannot block registration (and a
// collector calling back into the registry cannot deadlock).
func (r *Registry) collect() ([]*family, *Collector) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	collectors := make([]func(*Collector), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	c := &Collector{families: make(map[string]*collFamily)}
	for _, fn := range collectors {
		fn(c)
	}
	return fams, c
}

func (r *Registry) write(w io.Writer, openMetrics bool) error {
	fams, c := r.collect()
	type renderFamily struct {
		name string
		help string
		kind Kind
		// scalar lines, sorted by label key.
		scalars []collSample
		hists   []histSeries
	}
	byName := make(map[string]*renderFamily, len(fams)+len(c.families))
	for _, f := range fams {
		rf := &renderFamily{name: f.name, help: f.help, kind: f.kind, hists: f.hists}
		for _, s := range f.series {
			rf.scalars = append(rf.scalars, collSample{key: s.key, v: s.read()})
		}
		byName[f.name] = rf
	}
	for name, cf := range c.families {
		rf := byName[name]
		if rf == nil {
			rf = &renderFamily{name: name, help: cf.help, kind: cf.kind}
			byName[name] = rf
		} else if rf.kind != cf.kind {
			panic(fmt.Sprintf("obs: metric %s registered as %s but collected as %s", name, rf.kind, cf.kind))
		}
		rf.scalars = append(rf.scalars, cf.samples...)
	}

	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)

	var b strings.Builder
	for _, name := range names {
		rf := byName[name]
		fmt.Fprintf(&b, "# HELP %s %s\n", rf.name, escapeHelp(rf.help))
		fmt.Fprintf(&b, "# TYPE %s %s\n", rf.name, rf.kind)
		sort.Slice(rf.scalars, func(i, j int) bool { return rf.scalars[i].key < rf.scalars[j].key })
		for _, s := range rf.scalars {
			fmt.Fprintf(&b, "%s%s %s\n", rf.name, s.key, formatValue(s.v))
		}
		hists := make([]histSeries, len(rf.hists))
		copy(hists, rf.hists)
		sort.Slice(hists, func(i, j int) bool { return hists[i].key < hists[j].key })
		for _, hs := range hists {
			writeHistogram(&b, rf.name, hs, openMetrics)
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
		b.Reset()
	}
	if openMetrics {
		if _, err := io.WriteString(w, "# EOF\n"); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders one histogram series: cumulative buckets over the
// occupied power-of-two bounds (in seconds), the +Inf bucket, `_sum` and
// `_count`. The `_count` and +Inf values come from the same bucket sweep as
// the `le` lines, so the series is internally monotone even when writers
// race the scrape. With exemplars on (the OpenMetrics variant), a bucket
// that retained a sampled trace ID gets the `# {trace_id="..."} <bound>`
// annotation, linking the bucket to a span tree in /traces.
func writeHistogram(b *strings.Builder, name string, hs histSeries, exemplars bool) {
	// Splice `le` into the existing canonical label block: the key already
	// holds the sorted, escaped labels; `le` conventionally goes last.
	bucketPrefix := name + "_bucket{le=\""
	if hs.key != "" {
		bucketPrefix = name + "_bucket" + hs.key[:len(hs.key)-1] + ",le=\""
	}
	total := hs.h.Buckets(func(upper time.Duration, cumulative int64) {
		b.WriteString(bucketPrefix)
		bound := strconv.FormatFloat(upper.Seconds(), 'g', -1, 64)
		b.WriteString(bound)
		b.WriteString("\"} ")
		b.WriteString(strconv.FormatInt(cumulative, 10))
		if exemplars {
			if id := hs.h.Exemplar(upper); id != "" {
				b.WriteString(` # {trace_id="`)
				b.WriteString(escapeLabelValue(id))
				b.WriteString(`"} `)
				b.WriteString(bound)
			}
		}
		b.WriteByte('\n')
	})
	b.WriteString(bucketPrefix)
	b.WriteString("+Inf\"} ")
	b.WriteString(strconv.FormatInt(total, 10))
	b.WriteByte('\n')
	fmt.Fprintf(b, "%s_sum%s %s\n", name, hs.key, formatValue(hs.h.Sum().Seconds()))
	fmt.Fprintf(b, "%s_count%s %s\n", name, hs.key, strconv.FormatInt(total, 10))
}
