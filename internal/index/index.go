// Package index implements the retrieval substrate of the Greenstone model:
// an inverted index with boolean queries and term-frequency ranking, browse
// classifiers (metadata-sorted shelves), and single-document query matching
// used to evaluate profile sub-queries against incoming events (paper §5:
// "search queries can be used as profile queries").
package index

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"unicode"
)

// Doc is the minimal document view the index needs.
type Doc struct {
	// ID uniquely identifies the document within its collection.
	ID string
	// Fields maps metadata field names (e.g. "dc.Title") to values.
	Fields map[string][]string
	// Text is the full-text content.
	Text string
}

// posting records one document's occurrences of a term.
type posting struct {
	docID string
	count int
}

// fieldIndex is an inverted index over one searchable field (or full text).
type fieldIndex struct {
	postings map[string][]posting // term -> postings, sorted by docID
	docLens  map[string]int       // docID -> token count
}

// TextField is the pseudo-field name under which full text is indexed.
const TextField = "text"

// Index is an immutable-after-Build inverted index over a set of documents.
// Build replaces the entire contents, mirroring Greenstone's batch collection
// build process; queries are safe for concurrent use.
type Index struct {
	mu     sync.RWMutex
	fields map[string]*fieldIndex
	nDocs  int
}

// New returns an empty index.
func New() *Index {
	return &Index{fields: make(map[string]*fieldIndex)}
}

// Build (re)indexes docs over the given metadata fields plus full text.
// A nil fieldNames indexes every metadata field present.
func (ix *Index) Build(docs []Doc, fieldNames []string) {
	fields := make(map[string]*fieldIndex)

	wanted := map[string]bool{}
	for _, f := range fieldNames {
		wanted[f] = true
	}
	auto := len(fieldNames) == 0

	add := func(field, docID, text string) {
		fi := fields[field]
		if fi == nil {
			fi = &fieldIndex{postings: make(map[string][]posting), docLens: make(map[string]int)}
			fields[field] = fi
		}
		tokens := Tokenize(text)
		fi.docLens[docID] += len(tokens)
		counts := make(map[string]int, len(tokens))
		for _, tok := range tokens {
			counts[tok]++
		}
		for term, n := range counts {
			fi.postings[term] = append(fi.postings[term], posting{docID: docID, count: n})
		}
	}

	for _, d := range docs {
		add(TextField, d.ID, d.Text)
		for field, values := range d.Fields {
			if !auto && !wanted[field] {
				continue
			}
			add(field, d.ID, strings.Join(values, " "))
		}
	}
	for _, fi := range fields {
		for term := range fi.postings {
			ps := fi.postings[term]
			sort.Slice(ps, func(i, j int) bool { return ps[i].docID < ps[j].docID })
		}
	}

	ix.mu.Lock()
	ix.fields = fields
	ix.nDocs = len(docs)
	ix.mu.Unlock()
}

// Len reports the number of indexed documents.
func (ix *Index) Len() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return ix.nDocs
}

// Tokenize lowercases and splits text into letter/digit runs. It is the
// single tokenizer used by indexing, querying and event matching so that
// continuous search behaves identically to interactive search.
func Tokenize(text string) []string {
	var out []string
	var b strings.Builder
	flush := func() {
		if b.Len() > 0 {
			out = append(out, b.String())
			b.Reset()
		}
	}
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			b.WriteRune(unicode.ToLower(r))
		} else {
			flush()
		}
	}
	flush()
	return out
}

// Hit is one scored search result.
type Hit struct {
	DocID string
	Score float64
}

// Search evaluates a parsed query against one field and returns hits sorted
// by descending score (TF-IDF-lite), ties broken by ascending DocID for
// deterministic output. limit <= 0 means unlimited.
func (ix *Index) Search(q *Query, field string, limit int) []Hit {
	if q == nil {
		return nil
	}
	if field == "" {
		field = TextField
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	fi := ix.fields[field]
	if fi == nil {
		return nil
	}
	scores := ix.eval(q, fi)
	hits := make([]Hit, 0, len(scores))
	for id, s := range scores {
		hits = append(hits, Hit{DocID: id, Score: s})
	}
	sort.Slice(hits, func(i, j int) bool {
		if hits[i].Score != hits[j].Score {
			return hits[i].Score > hits[j].Score
		}
		return hits[i].DocID < hits[j].DocID
	})
	if limit > 0 && len(hits) > limit {
		hits = hits[:limit]
	}
	return hits
}

// eval returns docID -> score for q over fi.
func (ix *Index) eval(q *Query, fi *fieldIndex) map[string]float64 {
	switch q.Kind {
	case KindTerm:
		return ix.termScores(q.Term, fi)
	case KindAnd:
		var acc map[string]float64
		for _, child := range q.Children {
			s := ix.eval(child, fi)
			if acc == nil {
				acc = s
				continue
			}
			for id := range acc {
				cs, ok := s[id]
				if !ok {
					delete(acc, id)
				} else {
					acc[id] += cs
				}
			}
		}
		if acc == nil {
			acc = map[string]float64{}
		}
		return acc
	case KindOr:
		acc := map[string]float64{}
		for _, child := range q.Children {
			for id, cs := range ix.eval(child, fi) {
				acc[id] += cs
			}
		}
		return acc
	case KindNot:
		// NOT is only meaningful inside an AND; evaluated standalone it
		// selects all documents not matching the child.
		excluded := ix.eval(q.Children[0], fi)
		acc := map[string]float64{}
		for id := range fi.docLens {
			if _, bad := excluded[id]; !bad {
				acc[id] = 0.1
			}
		}
		return acc
	default:
		return map[string]float64{}
	}
}

func (ix *Index) termScores(term string, fi *fieldIndex) map[string]float64 {
	out := map[string]float64{}
	ps := fi.postings[term]
	if len(ps) == 0 {
		return out
	}
	idf := math.Log(1 + float64(ix.nDocs)/float64(len(ps)))
	for _, p := range ps {
		tf := float64(p.count) / math.Max(1, float64(fi.docLens[p.docID]))
		out[p.docID] = tf * idf
	}
	return out
}

// MatchDoc evaluates a query directly against a single document without any
// index — this is how profile sub-queries filter incoming event documents
// (the event carries the doc; there is nothing indexed yet on the receiving
// server).
func MatchDoc(q *Query, d Doc, field string) bool {
	if q == nil {
		return false
	}
	var text string
	if field == "" || field == TextField {
		text = d.Text
	} else {
		text = strings.Join(d.Fields[field], " ")
	}
	toks := Tokenize(text)
	set := make(map[string]bool, len(toks))
	for _, t := range toks {
		set[t] = true
	}
	return matchSet(q, set)
}

func matchSet(q *Query, set map[string]bool) bool {
	switch q.Kind {
	case KindTerm:
		return set[q.Term]
	case KindAnd:
		for _, c := range q.Children {
			if !matchSet(c, set) {
				return false
			}
		}
		return true
	case KindOr:
		for _, c := range q.Children {
			if matchSet(c, set) {
				return true
			}
		}
		return false
	case KindNot:
		return !matchSet(q.Children[0], set)
	default:
		return false
	}
}

// Classifier is a browse structure: documents grouped into labelled buckets
// by a metadata field (Greenstone's AZList-style classifiers).
type Classifier struct {
	// Field is the metadata field the classifier sorts by.
	Field string
	// Buckets are sorted by label; each bucket's doc IDs are sorted too.
	Buckets []Bucket
}

// Bucket is one shelf of a classifier.
type Bucket struct {
	Label  string
	DocIDs []string
}

// BuildClassifier groups docs by the first letter of the given field
// (classic A-Z list). Documents missing the field land under "#".
func BuildClassifier(docs []Doc, field string) *Classifier {
	byLabel := make(map[string][]string)
	for _, d := range docs {
		vals := d.Fields[field]
		label := "#"
		if len(vals) > 0 {
			trimmed := strings.TrimSpace(vals[0])
			if trimmed != "" {
				label = strings.ToUpper(string([]rune(trimmed)[0]))
			}
		}
		byLabel[label] = append(byLabel[label], d.ID)
	}
	labels := make([]string, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	c := &Classifier{Field: field, Buckets: make([]Bucket, 0, len(labels))}
	for _, l := range labels {
		ids := byLabel[l]
		sort.Strings(ids)
		c.Buckets = append(c.Buckets, Bucket{Label: l, DocIDs: ids})
	}
	return c
}

// String renders a compact description, e.g. "AZList(dc.Title): 5 buckets".
func (c *Classifier) String() string {
	return fmt.Sprintf("AZList(%s): %d buckets", c.Field, len(c.Buckets))
}
