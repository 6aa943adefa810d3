package collection

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/gsalert/gsalert/internal/event"
	"github.com/gsalert/gsalert/internal/index"
)

// Collection is one collection managed by a Greenstone server: its
// configuration, current data set, search index and browse classifiers.
// The data set is replaced wholesale by Build, mirroring Greenstone's batch
// (re)build process.
type Collection struct {
	mu           sync.RWMutex
	cfg          Config
	host         string
	docs         map[string]*Document
	idx          *index.Index
	classifiers  map[string]*index.Classifier
	buildVersion int
	fingerprints map[string]string
}

// New creates an unbuilt collection on the given host.
func New(host string, cfg Config) (*Collection, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if host == "" {
		return nil, fmt.Errorf("collection: empty host for %q", cfg.Name)
	}
	return &Collection{
		cfg:          cfg,
		host:         host,
		docs:         make(map[string]*Document),
		idx:          index.New(),
		classifiers:  make(map[string]*index.Classifier),
		fingerprints: make(map[string]string),
	}, nil
}

// QName returns the collection's qualified name.
func (c *Collection) QName() event.QName {
	return event.QName{Host: c.host, Collection: c.cfg.Name}
}

// Config returns a copy of the configuration.
func (c *Collection) Config() Config {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cfg := c.cfg
	cfg.IndexFields = append([]string(nil), c.cfg.IndexFields...)
	cfg.Classifiers = append([]string(nil), c.cfg.Classifiers...)
	cfg.Subs = append([]SubRef(nil), c.cfg.Subs...)
	return cfg
}

// SetConfig replaces the configuration (collection restructuring). The
// caller is responsible for propagating auxiliary-profile changes.
func (c *Collection) SetConfig(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Name != c.cfg.Name {
		return fmt.Errorf("collection: cannot rename %q to %q", c.cfg.Name, cfg.Name)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cfg = cfg
	return nil
}

// IsVirtual reports whether the collection holds no data of its own but has
// sub-collections (paper §3: Hamilton.C).
func (c *Collection) IsVirtual() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs) == 0 && len(c.cfg.Subs) > 0
}

// Public reports visibility.
func (c *Collection) Public() bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.cfg.Public
}

// Len reports the local document count (excluding sub-collections).
func (c *Collection) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.docs)
}

// BuildVersion reports the current build number (0 = never built).
func (c *Collection) BuildVersion() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.buildVersion
}

// Doc fetches a local document by ID.
func (c *Collection) Doc(id string) (*Document, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	d, ok := c.docs[id]
	if !ok {
		return nil, false
	}
	return d.Clone(), true
}

// Docs returns all local documents sorted by ID.
func (c *Collection) Docs() []*Document {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Document, 0, len(c.docs))
	for _, d := range c.docs {
		out = append(out, d.Clone())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Search runs a retrieval query over the local data set. field "" means
// full text. It returns hits sorted by score.
func (c *Collection) Search(query, field string, limit int) ([]index.Hit, error) {
	q, err := index.ParseQuery(query)
	if err != nil {
		return nil, err
	}
	c.mu.RLock()
	idx := c.idx
	c.mu.RUnlock()
	return idx.Search(q, field, limit), nil
}

// Classifier returns the browse classifier for a field built during the
// last build.
func (c *Collection) Classifier(field string) (*index.Classifier, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	cl, ok := c.classifiers[field]
	return cl, ok
}

// BuildResult summarises one (re)build: the diff against the previous build
// and the alerting events describing it.
type BuildResult struct {
	// Collection is the built collection's qualified name.
	Collection event.QName
	// Version is the new build number.
	Version int
	// Added, Changed, Removed list the diffed document IDs.
	Added, Changed, Removed []string
	// Events are the alerting events describing the build, ready to
	// publish. The first event is always the collection-built/rebuilt
	// summary; per-kind document events follow when applicable.
	Events []*event.Event
	// IndexDuration is the time spent building indexes and classifiers —
	// the baseline cost the paper compares filtering against.
	IndexDuration time.Duration
}

// Build replaces the collection's data set with docs, rebuilds the search
// index and classifiers, diffs against the previous build, and produces the
// alerting events. idgen supplies event IDs (the server's naming + counter).
func (c *Collection) Build(docs []*Document, now time.Time, idgen func() string) (*BuildResult, error) {
	for _, d := range docs {
		if d.ID == "" {
			return nil, fmt.Errorf("collection %s: document with empty ID", c.cfg.Name)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	newDocs := make(map[string]*Document, len(docs))
	newPrints := make(map[string]string, len(docs))
	for _, d := range docs {
		if _, dup := newDocs[d.ID]; dup {
			return nil, fmt.Errorf("collection %s: duplicate document ID %q", c.cfg.Name, d.ID)
		}
		cp := d.Clone()
		newDocs[d.ID] = cp
		newPrints[d.ID] = cp.Fingerprint()
	}

	var added, changed, removed []string
	for id, print := range newPrints {
		old, existed := c.fingerprints[id]
		switch {
		case !existed:
			added = append(added, id)
		case old != print:
			changed = append(changed, id)
		}
	}
	for id := range c.fingerprints {
		if _, still := newPrints[id]; !still {
			removed = append(removed, id)
		}
	}
	sort.Strings(added)
	sort.Strings(changed)
	sort.Strings(removed)

	start := time.Now()
	ixDocs := make([]index.Doc, 0, len(newDocs))
	for _, d := range newDocs {
		ixDocs = append(ixDocs, index.Doc{ID: d.ID, Fields: d.Metadata, Text: d.Content})
	}
	c.idx.Build(ixDocs, c.cfg.IndexFields)
	classifiers := make(map[string]*index.Classifier, len(c.cfg.Classifiers))
	for _, f := range c.cfg.Classifiers {
		classifiers[f] = index.BuildClassifier(ixDocs, f)
	}
	indexDuration := time.Since(start)

	firstBuild := c.buildVersion == 0
	c.buildVersion++
	c.docs = newDocs
	c.fingerprints = newPrints
	c.classifiers = classifiers

	res := &BuildResult{
		Collection:    c.QName(),
		Version:       c.buildVersion,
		Added:         added,
		Changed:       changed,
		Removed:       removed,
		IndexDuration: indexDuration,
	}
	res.Events = c.buildEventsLocked(firstBuild, added, changed, removed, now, idgen)
	return res, nil
}

// buildEventsLocked creates the event set for a finished build.
func (c *Collection) buildEventsLocked(firstBuild bool, added, changed, removed []string, now time.Time, idgen func() string) []*event.Event {
	qn := event.QName{Host: c.host, Collection: c.cfg.Name}
	summaryType := event.TypeCollectionRebuilt
	if firstBuild {
		summaryType = event.TypeCollectionBuilt
	}
	var events []*event.Event
	// Summary event carries all current docs on first build, the union of
	// added+changed on rebuilds (subscribers to the collection as a whole
	// care about what is new or different).
	var summaryDocs []event.DocRef
	if firstBuild {
		for _, d := range c.docs {
			summaryDocs = append(summaryDocs, c.docRefLocked(d.ID))
		}
		sort.Slice(summaryDocs, func(i, j int) bool { return summaryDocs[i].ID < summaryDocs[j].ID })
	} else {
		for _, id := range added {
			summaryDocs = append(summaryDocs, c.docRefLocked(id))
		}
		for _, id := range changed {
			summaryDocs = append(summaryDocs, c.docRefLocked(id))
		}
	}
	events = append(events, event.New(idgen(), summaryType, qn, c.buildVersion, summaryDocs, now))

	mk := func(typ event.Type, ids []string, withDocs bool) {
		if len(ids) == 0 {
			return
		}
		refs := make([]event.DocRef, 0, len(ids))
		for _, id := range ids {
			if withDocs {
				refs = append(refs, c.docRefLocked(id))
			} else {
				refs = append(refs, event.DocRef{ID: id})
			}
		}
		events = append(events, event.New(idgen(), typ, qn, c.buildVersion, refs, now))
	}
	if !firstBuild {
		mk(event.TypeDocumentsAdded, added, true)
		mk(event.TypeDocumentsChanged, changed, true)
		mk(event.TypeDocumentsRemoved, removed, false)
	}
	return events
}

func (c *Collection) docRefLocked(id string) event.DocRef {
	d := c.docs[id]
	if d == nil {
		return event.DocRef{ID: id}
	}
	meta := make(map[string][]string, len(d.Metadata))
	for k, v := range d.Metadata {
		meta[k] = append([]string(nil), v...)
	}
	return event.DocRef{ID: d.ID, Metadata: meta, Snippet: d.Snippet(200)}
}
