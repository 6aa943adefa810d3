package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/profile"
	"github.com/gsalert/gsalert/internal/qos"
)

// gen is the seeded workload generator and, through its own tables, the
// correctness oracle: which profiles an event must notify follows from the
// topic, creator and keyword tables below, never from internal/filter.
//
// Seeds vary identity and order, not load: subscribers per topic rank and
// event topics per block are stratified (every block of blockSize events is
// an exact quantile sample of the topic distribution), so two seeds offer
// the system the same amount of work and their metrics are comparable.
type gen struct {
	sp   spec
	rng  *rand.Rand
	host string
	coll event.QName

	topicName  []string  // topic rank -> dc.Subject value (seed-permuted)
	topicStart []int32   // profiles of rank t are [topicStart[t], topicStart[t+1])
	evtCDF     []float64 // cumulative event-topic distribution over ranks
	clientOf   []int32   // profile -> owning client (seed-shuffled)

	creatorStart int // first creator profile
	// creator profile j watches creator j % creators with threshold year
	// yearBase + (j / creators) % yearSpan.
	residualStart int // first residual profile
	keywords      int // residual profiles [residualStart, +keywords) watch one keyword each
	geHot         int // the next geHot residual profiles hold `dc.Date >= yearBase+yearSpan-1`

	desc  []evDesc // per published sequence number
	block []evDesc // current stratified block, consumed from the end
	base  time.Time
}

// evDesc is what the oracle needs to know about one event.
type evDesc struct {
	topic   int32 // rank
	creator int32
	kw      int32
	year    int16
}

const (
	blockSize = 256
	yearBase  = 1990
	yearSpan  = 20
	geHotMax  = 10
)

func newGen(sp spec, seed int64, host string) (*gen, error) {
	g := &gen{
		sp:   sp,
		rng:  rand.New(rand.NewSource(seed)),
		host: host,
		coll: event.QName{Host: host, Collection: "C"},
		base: time.Unix(1_120_000_000, 0),
	}
	counts, err := topicCounts(sp.topicProfiles, sp.topics, sp.subSkew, sp.maxPerTopic)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sp.name, err)
	}
	g.topicStart = make([]int32, sp.topics+1)
	for t, n := range counts {
		g.topicStart[t+1] = g.topicStart[t] + int32(n)
	}
	g.topicName = make([]string, sp.topics)
	for rank, id := range g.rng.Perm(sp.topics) {
		g.topicName[rank] = fmt.Sprintf("t%05d", id)
	}
	g.evtCDF = make([]float64, sp.topics)
	var total float64
	for t := range g.evtCDF {
		total += zipfWeight(t, sp.evtSkew)
		g.evtCDF[t] = total
	}
	for t := range g.evtCDF {
		g.evtCDF[t] /= total
	}
	g.clientOf = make([]int32, sp.profiles())
	for i, p := range g.rng.Perm(sp.profiles()) {
		g.clientOf[i] = int32(p % sp.clients)
	}
	g.creatorStart = sp.topicProfiles
	g.residualStart = sp.topicProfiles + sp.creatorProfiles
	g.keywords = sp.residualProfiles / 2
	g.geHot = min(geHotMax, sp.residualProfiles-g.keywords)
	return g, nil
}

func zipfWeight(rank int, skew float64) float64 {
	if skew == 0 {
		return 1
	}
	return 1 / math.Pow(float64(rank+1), skew)
}

// topicCounts spreads profiles over topic ranks by zipf weight, capping a
// topic's subscribers and handing the excess to the next ranks below the cap.
func topicCounts(profiles, topics int, skew float64, limit int) ([]int, error) {
	if limit > 0 && limit*topics < profiles {
		return nil, fmt.Errorf("%d profiles do not fit %d topics capped at %d", profiles, topics, limit)
	}
	var total float64
	for t := 0; t < topics; t++ {
		total += zipfWeight(t, skew)
	}
	counts := make([]int, topics)
	left := profiles
	for t := range counts {
		n := int(float64(profiles) * zipfWeight(t, skew) / total)
		if limit > 0 && n > limit {
			n = limit
		}
		counts[t] = n
		left -= n
	}
	for t := 0; left > 0; t = (t + 1) % topics {
		if limit == 0 || counts[t] < limit {
			counts[t]++
			left--
		}
	}
	return counts, nil
}

func clientName(c int) string  { return fmt.Sprintf("c%05d", c) }
func profileID(i int) string   { return fmt.Sprintf("p%07d", i) }
func eventID(seq int) string   { return fmt.Sprintf("e%07d", seq) }
func creatorName(c int) string { return fmt.Sprintf("a%04d", c) }
func keyword(k int) string     { return fmt.Sprintf("kw%05d", k) }

// parseID reads the number out of an ID minted by the helpers above.
func parseID(s string, prefix byte) (int, bool) {
	if len(s) < 2 || s[0] != prefix {
		return 0, false
	}
	n := 0
	for i := 1; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 {
			return 0, false
		}
		n = n*10 + int(d)
	}
	return n, true
}

func (g *gen) detached(client int) bool {
	return g.sp.detachedEvery > 0 && client%g.sp.detachedEvery == 0
}

func (g *gen) composite(i int) bool {
	return g.sp.compositeEvery > 0 && i < g.sp.topicProfiles && i%g.sp.compositeEvery == g.sp.compositeEvery-1
}

func (g *gen) topicOfProfile(i int) int {
	return sort.Search(g.sp.topics, func(t int) bool { return g.topicStart[t+1] > int32(i) })
}

func (g *gen) creatorThreshold(i int) int {
	j := i - g.creatorStart
	return yearBase + (j/g.sp.creators)%yearSpan
}

func (g *gen) pred(attr string, op profile.Op, value string) profile.Expr {
	return &profile.Pred{Attr: attr, Op: op, Value: value}
}

// expr builds profile i's expression. Every profile names the collection;
// the filter indexes on the first document-attribute equality.
func (g *gen) expr(i int) profile.Expr {
	coll := g.pred("collection", profile.OpEq, g.coll.String())
	switch {
	case i < g.creatorStart:
		return profile.NewAnd(coll, g.pred("dc.Subject", profile.OpEq, g.topicName[g.topicOfProfile(i)]))
	case i < g.residualStart:
		return profile.NewAnd(
			g.pred("dc.Creator", profile.OpEq, creatorName((i-g.creatorStart)%g.sp.creators)),
			g.pred("dc.Date", profile.OpGe, fmt.Sprint(g.creatorThreshold(i))))
	case i < g.residualStart+g.keywords:
		return g.pred("dc.Title", profile.OpContains, keyword(i-g.residualStart))
	case i < g.residualStart+g.keywords+g.geHot:
		return g.pred("dc.Date", profile.OpGe, fmt.Sprint(yearBase+yearSpan-1))
	default:
		// Never true: no event is dated this late. Still scanned per event.
		return g.pred("dc.Date", profile.OpGe, fmt.Sprint(yearBase+yearSpan+i-g.residualStart))
	}
}

func (g *gen) class(i int) qos.Class {
	if !g.sp.classMix {
		return qos.ClassNormal
	}
	switch i % 4 {
	case 0:
		return qos.ClassRealtime
	case 3:
		return qos.ClassBulk
	default:
		return qos.ClassNormal
	}
}

// profile builds subscriber profile i, homed at server home.
func (g *gen) profile(i int, home string) (*profile.Profile, error) {
	owner := clientName(int(g.clientOf[i]))
	if g.composite(i) {
		p, err := profile.NewComposite(profileID(i), owner, home, &profile.Composite{
			Kind:   profile.CompositeCount,
			Steps:  []profile.Expr{g.expr(i)},
			Count:  compositeCount,
			Window: time.Hour,
		})
		if err != nil {
			return nil, err
		}
		p.Class = g.class(i)
		return p, nil
	}
	p := profile.NewUser(profileID(i), owner, home, g.expr(i))
	p.Class = g.class(i)
	return p, nil
}

// churnExpr shares the hottest topic's access key with the live population
// and adds a conjunct no event satisfies, so churned profiles are evaluated
// but never change the expectation.
func (g *gen) churnExpr() profile.Expr {
	return profile.NewAnd(
		g.pred("collection", profile.OpEq, g.coll.String()),
		g.pred("dc.Subject", profile.OpEq, g.topicName[0]),
		g.pred("dc.Rights", profile.OpEq, "never"))
}

func (g *gen) refill() {
	offset := g.rng.Float64()
	g.block = g.block[:0]
	for j := 0; j < blockSize; j++ {
		u := (float64(j) + offset) / blockSize
		d := evDesc{
			topic: int32(sort.SearchFloat64s(g.evtCDF, u)),
			kw:    int32(g.rng.Intn(4*g.keywords + 1)),
			year:  int16(yearBase + g.rng.Intn(yearSpan)),
		}
		if int(d.topic) >= g.sp.topics {
			d.topic = int32(g.sp.topics - 1)
		}
		if g.sp.creators > 0 {
			d.creator = int32(g.rng.Intn(g.sp.creators))
		}
		g.block = append(g.block, d)
	}
	g.rng.Shuffle(len(g.block), func(a, b int) { g.block[a], g.block[b] = g.block[b], g.block[a] })
}

// events generates the next n events. Sequence numbers continue across
// calls and ride in the event ID.
func (g *gen) events(n int) []*event.Event {
	out := make([]*event.Event, n)
	for i := range out {
		if len(g.block) == 0 {
			g.refill()
		}
		d := g.block[len(g.block)-1]
		g.block = g.block[:len(g.block)-1]
		seq := len(g.desc)
		g.desc = append(g.desc, d)

		out[i] = g.build(seq)
	}
	return out
}

// build materialises event seq from its descriptor: one document carries
// the values profiles can match, the rest is filler that matches nothing.
func (g *gen) build(seq int) *event.Event {
	d := g.desc[seq]
	docs := make([]event.DocRef, g.sp.docs)
	for j := range docs {
		docs[j] = event.DocRef{
			ID: fmt.Sprintf("d%07d-%d", seq, j),
			Metadata: map[string][]string{
				"dc.Title":   {"filler"},
				"dc.Creator": {"nobody"},
				"dc.Subject": {"none"},
				"dc.Date":    {"1980"},
			},
		}
	}
	docs[seq%g.sp.docs].Metadata = map[string][]string{
		"dc.Title":   {"report " + keyword(int(d.kw)) + " end"},
		"dc.Creator": {creatorName(int(d.creator))},
		"dc.Subject": {g.topicName[d.topic]},
		"dc.Date":    {fmt.Sprint(d.year)},
	}
	return event.New(eventID(seq), event.TypeDocumentsAdded, g.coll, seq+1, docs,
		g.base.Add(time.Duration(seq)*time.Second))
}

// forEachHit calls fn with every profile event seq must match.
func (g *gen) forEachHit(seq int, fn func(profile int)) {
	d := g.desc[seq]
	for i := g.topicStart[d.topic]; i < g.topicStart[d.topic+1]; i++ {
		fn(int(i))
	}
	if g.sp.creators > 0 {
		// Creator profiles on key c are creatorStart + c + k*creators.
		for i := g.creatorStart + int(d.creator); i < g.residualStart; i += g.sp.creators {
			if int(d.year) >= g.creatorThreshold(i) {
				fn(i)
			}
		}
	}
	if int(d.kw) < g.keywords {
		fn(g.residualStart + int(d.kw))
	}
	if int(d.year) == yearBase+yearSpan-1 {
		for k := 0; k < g.geHot; k++ {
			fn(g.residualStart + g.keywords + k)
		}
	}
}

// pairHash is an order-independent fingerprint of one (event, profile)
// delivery: sums of it over a client's notifications compare multisets.
func pairHash(seq, profile int) uint64 {
	return mix(uint64(seq)+1) * (mix(uint64(profile)+0x9e37) | 1)
}

func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// expectation is what the sinks must have seen once every sequence number
// marked published was published and drained.
type expectation struct {
	count     []int64  // primitive notifications per client
	sum       []uint64 // Σ pairHash per client
	composite []int64  // composite notifications per client
	total     int64
	compTotal int64
}

func (g *gen) expect(published []bool) expectation {
	ex := expectation{
		count:     make([]int64, g.sp.clients),
		sum:       make([]uint64, g.sp.clients),
		composite: make([]int64, g.sp.clients),
	}
	steps := make(map[int]int64) // composite profile -> step matches
	for seq, ok := range published {
		if !ok {
			continue
		}
		g.forEachHit(seq, func(p int) {
			if g.composite(p) {
				steps[p]++
				return
			}
			c := g.clientOf[p]
			ex.count[c]++
			ex.sum[c] += pairHash(seq, p)
			ex.total++
		})
	}
	for p, n := range steps {
		fired := n / compositeCount
		ex.composite[g.clientOf[p]] += fired
		ex.compTotal += fired
	}
	return ex
}
