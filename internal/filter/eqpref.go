package filter

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"unicode/utf8"

	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/index"
	"github.com/gsalert/gsalert/internal/profile"
)

// conjEntry is one indexed DNF conjunction of a profile.
type conjEntry struct {
	profile *profile.Profile
	conj    profile.Conjunction
	// eventOnly marks conjunctions whose predicates reference only
	// event-level attributes: they can be decided once per event instead of
	// once per document.
	eventOnly bool
}

// EqualityPreferred hash-indexes each DNF conjunction of every profile by
// one of its positive equality predicates, preferring document-attribute
// predicates (selective) over event-level ones (a collection name repeats
// for every local event). Document-indexed conjunctions are evaluated only
// against documents that actually expose the access value — the Fabret-
// style access-predicate discipline that keeps filtering cost proportional
// to the event content rather than to the profile population (paper §5).
type EqualityPreferred struct {
	mu       sync.Mutex
	profiles map[string]*profile.Profile
	// docIndex: access key over document attributes -> conjunctions.
	docIndex map[string][]*conjEntry
	// evtIndex: access key over event attributes -> conjunctions.
	evtIndex map[string][]*conjEntry
	// residual: conjunctions with no positive equality predicate at all;
	// they are evaluated for every event.
	residual []*conjEntry
	// keysByProfile remembers where each profile's entries live.
	keysByProfile map[string]*profileKeys
	stats         Stats

	// Match's scratch, reused from call to call because mu serialises
	// Match: the (profile, doc) hits found, the event's document views, the
	// access-key buffer and the doc-index buckets already walked for the
	// current document. If mu stops serialising Match (a lock-free index
	// snapshot), these become per-call values.
	hits   []hit
	docs   []index.Doc
	keyBuf []byte
	walked []*conjEntry
}

// hit records that profile matched the event's document doc, or the event
// itself when doc is -1 (a doc-less event).
type hit struct {
	profile *profile.Profile
	doc     int
}

type profileKeys struct {
	docKeys []string
	evtKeys []string
	inRes   bool
}

// NewEqualityPreferred builds an empty equality-preferred matcher.
func NewEqualityPreferred() *EqualityPreferred {
	return &EqualityPreferred{
		profiles:      make(map[string]*profile.Profile),
		docIndex:      make(map[string][]*conjEntry),
		evtIndex:      make(map[string][]*conjEntry),
		keysByProfile: make(map[string]*profileKeys),
	}
}

var _ Matcher = (*EqualityPreferred)(nil)

func accessKey(attr, value string) string {
	return attr + "\x00" + strings.ToLower(value)
}

// appendAccessKey appends accessKey(attr, value) to buf, so that Match can
// look a key up as idx[string(buf)] without building a string. ASCII is
// lower-cased in place; a non-ASCII value goes through strings.ToLower, so
// the bytes are always identical to accessKey's.
func appendAccessKey(buf []byte, attr, value string) []byte {
	buf = append(buf, attr...)
	buf = append(buf, 0)
	start := len(buf)
	for i := 0; i < len(value); i++ {
		c := value[i]
		if c >= utf8.RuneSelf {
			return append(buf[:start], strings.ToLower(value)...)
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		buf = append(buf, c)
	}
	return buf
}

// eventAttrNames mirrors the event-level attributes of the profile package.
var eventAttrNames = map[string]bool{
	"collection": true,
	"host":       true,
	"origin":     true,
	"event.type": true,
}

// chooseAccess picks the access predicate for a conjunction: the first
// positive equality over a document attribute if any (selective), else the
// first positive equality over an event attribute, else none.
func chooseAccess(c profile.Conjunction) (pred *profile.Pred, onDoc bool) {
	var evtPred *profile.Pred
	for _, p := range c {
		if p.Op != profile.OpEq || p.Neg {
			continue
		}
		if !eventAttrNames[p.Attr] {
			return p, true
		}
		if evtPred == nil {
			evtPred = p
		}
	}
	return evtPred, false
}

func conjIsEventOnly(c profile.Conjunction) bool {
	for _, p := range c {
		if !eventAttrNames[p.Attr] {
			return false
		}
	}
	return true
}

// Add registers p, normalising its expression to DNF for indexing.
func (e *EqualityPreferred) Add(p *profile.Profile) error {
	if err := p.Validate(); err != nil {
		return err
	}
	conjunctions, err := profile.ToDNF(p.Expr)
	if err != nil {
		return fmt.Errorf("filter: profile %s: %w", p.ID, err)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, exists := e.profiles[p.ID]; exists {
		e.removeLocked(p.ID)
	}
	e.profiles[p.ID] = p
	keys := &profileKeys{}
	e.keysByProfile[p.ID] = keys
	for _, c := range conjunctions {
		entry := &conjEntry{profile: p, conj: c, eventOnly: conjIsEventOnly(c)}
		access, onDoc := chooseAccess(c)
		switch {
		case access == nil:
			e.residual = append(e.residual, entry)
			keys.inRes = true
		case onDoc:
			k := accessKey(access.Attr, access.Value)
			e.docIndex[k] = append(e.docIndex[k], entry)
			keys.docKeys = append(keys.docKeys, k)
		default:
			k := accessKey(access.Attr, access.Value)
			e.evtIndex[k] = append(e.evtIndex[k], entry)
			keys.evtKeys = append(keys.evtKeys, k)
		}
	}
	return nil
}

// Remove deletes a profile by ID.
func (e *EqualityPreferred) Remove(id string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.profiles[id]; !ok {
		return false
	}
	e.removeLocked(id)
	return true
}

func dropEntries(entries []*conjEntry, p *profile.Profile) []*conjEntry {
	kept := entries[:0]
	for _, en := range entries {
		if en.profile != p {
			kept = append(kept, en)
		}
	}
	clear(entries[len(kept):]) // the dropped entries would keep p alive
	return kept
}

func (e *EqualityPreferred) removeLocked(id string) {
	p := e.profiles[id]
	delete(e.profiles, id)
	keys := e.keysByProfile[id]
	delete(e.keysByProfile, id)
	if keys == nil {
		return
	}
	for _, k := range keys.docKeys {
		if left := dropEntries(e.docIndex[k], p); len(left) == 0 {
			delete(e.docIndex, k)
		} else {
			e.docIndex[k] = left
		}
	}
	for _, k := range keys.evtKeys {
		if left := dropEntries(e.evtIndex[k], p); len(left) == 0 {
			delete(e.evtIndex, k)
		} else {
			e.evtIndex[k] = left
		}
	}
	if keys.inRes {
		e.residual = dropEntries(e.residual, p)
	}
}

// Get returns a profile by ID.
func (e *EqualityPreferred) Get(id string) (*profile.Profile, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.profiles[id]
	return p, ok
}

// All returns every profile sorted by ID.
func (e *EqualityPreferred) All() []*profile.Profile {
	e.mu.Lock()
	defer e.mu.Unlock()
	return sortedProfiles(e.profiles)
}

// Len reports the profile count.
func (e *EqualityPreferred) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.profiles)
}

// Stats reports counters. Evaluations counts conjunction evaluations — the
// unit of work the access-predicate index saves.
func (e *EqualityPreferred) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.stats
}

// Match is semantically identical to Naive.Match: a profile matches when
// some document satisfies its expression (or the event alone does, for
// doc-less events), and matching documents are reported in event order.
//
// It allocates a constant number of objects per call, however many
// profiles match: the event's attribute map, the result slice and one
// backing array that every Match's DocIDs is a capped sub-slice of.
func (e *EqualityPreferred) Match(ev *event.Event) []Match {
	attrs := ev.Attrs()
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.Events++

	for i := range ev.Docs {
		e.docs = append(e.docs, docRefToIndexDoc(&ev.Docs[i]))
	}
	ctx := profile.EvalContext{Attrs: attrs}

	// Event-indexed and residual conjunctions.
	for _, en := range e.residual {
		e.evalGlobal(en, &ctx)
	}
	for attr, v := range attrs {
		e.keyBuf = appendAccessKey(e.keyBuf[:0], attr, v)
		for _, en := range e.evtIndex[string(e.keyBuf)] {
			e.evalGlobal(en, &ctx)
		}
	}

	// Document-indexed conjunctions: only documents exposing the access
	// value trigger evaluation — and only against that document.
	if len(e.docIndex) > 0 {
		for i := range e.docs {
			d := &e.docs[i]
			ctx.Doc = d
			e.walked = e.walked[:0]
			e.walkDocBucket("doc.id", d.ID, i, &ctx)
			for attr, values := range d.Fields {
				for _, v := range values {
					e.walkDocBucket(attr, v, i, &ctx)
				}
			}
		}
	}

	out := e.collect(ev)
	e.stats.Matches += int64(len(out))
	// Drop the scratch's references, so that the matcher keeps neither
	// this event's documents nor a removed profile alive.
	clear(e.hits)
	clear(e.docs)
	clear(e.walked[:cap(e.walked)])
	e.hits, e.docs, e.walked = e.hits[:0], e.docs[:0], e.walked[:0]
	return out
}

// evalGlobal evaluates an event-indexed or residual conjunction: once when
// the event has no documents or the conjunction is document-independent
// (every document then matches, as the naive engine reports them all), and
// once per document otherwise.
func (e *EqualityPreferred) evalGlobal(en *conjEntry, ctx *profile.EvalContext) {
	if len(e.docs) == 0 || en.eventOnly {
		ctx.Doc = nil
		e.stats.Evaluations++
		if !profile.EvalConjunction(en.conj, ctx) {
			return
		}
		if len(e.docs) == 0 {
			e.hits = append(e.hits, hit{en.profile, -1})
		}
		for i := range e.docs {
			e.hits = append(e.hits, hit{en.profile, i})
		}
		return
	}
	for i := range e.docs {
		ctx.Doc = &e.docs[i]
		e.stats.Evaluations++
		if profile.EvalConjunction(en.conj, ctx) {
			e.hits = append(e.hits, hit{en.profile, i})
		}
	}
}

// walkDocBucket evaluates the doc-indexed conjunctions under (attr, value)
// against document doc, whose view ctx holds. A bucket is walked at most
// once per document, since several values of one document can share a key;
// it is known by its first entry, which no other bucket holds.
func (e *EqualityPreferred) walkDocBucket(attr, value string, doc int, ctx *profile.EvalContext) {
	e.keyBuf = appendAccessKey(e.keyBuf[:0], attr, value)
	bucket := e.docIndex[string(e.keyBuf)]
	if len(bucket) == 0 || slices.Contains(e.walked, bucket[0]) {
		return
	}
	e.walked = append(e.walked, bucket[0])
	for _, en := range bucket {
		e.stats.Evaluations++
		if profile.EvalConjunction(en.conj, ctx) {
			e.hits = append(e.hits, hit{en.profile, doc})
		}
	}
}

// collect turns the hits into Matches sorted by profile ID, each with its
// documents in event order. Every DocIDs is a capped sub-slice of one
// array, so a consumer's append cannot overwrite its neighbour's IDs.
func (e *EqualityPreferred) collect(ev *event.Event) []Match {
	slices.SortFunc(e.hits, func(a, b hit) int {
		if c := strings.Compare(a.profile.ID, b.profile.ID); c != 0 {
			return c
		}
		return cmp.Compare(a.doc, b.doc)
	})
	hits := slices.Compact(e.hits)
	n := 0
	for i := range hits {
		if i == 0 || hits[i].profile != hits[i-1].profile {
			n++
		}
	}
	out := make([]Match, 0, n)
	var ids []string
	if len(ev.Docs) > 0 {
		ids = make([]string, len(hits))
	}
	for i := 0; i < len(hits); {
		j := i + 1
		for j < len(hits) && hits[j].profile == hits[i].profile {
			j++
		}
		m := Match{Profile: hits[i].profile}
		if ids != nil {
			for k := i; k < j; k++ {
				ids[k] = ev.Docs[hits[k].doc].ID
			}
			m.DocIDs = ids[i:j:j]
		}
		out = append(out, m)
		i = j
	}
	return out
}

func docRefToIndexDoc(d *event.DocRef) index.Doc {
	return index.Doc{ID: d.ID, Fields: d.Metadata, Text: d.Snippet}
}
