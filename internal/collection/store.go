package collection

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Store holds the collections managed by one Greenstone server.
type Store struct {
	mu    sync.RWMutex
	host  string
	colls map[string]*Collection
}

// Store errors.
var (
	ErrNotFound = errors.New("collection: not found")
	ErrExists   = errors.New("collection: already exists")
)

// NewStore builds an empty store for a host.
func NewStore(host string) *Store {
	return &Store{host: host, colls: make(map[string]*Collection)}
}

// Host reports the owning host name.
func (s *Store) Host() string { return s.host }

// Add creates a collection from a configuration.
func (s *Store) Add(cfg Config) (*Collection, error) {
	c, err := New(s.host, cfg)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.colls[cfg.Name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrExists, cfg.Name)
	}
	s.colls[cfg.Name] = c
	return c, nil
}

// Get fetches a collection by name.
func (s *Store) Get(name string) (*Collection, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.colls[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	return c, nil
}

// Remove deletes a collection.
func (s *Store) Remove(name string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.colls[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNotFound, name)
	}
	delete(s.colls, name)
	return nil
}

// All returns every collection, sorted by name.
func (s *Store) All() []*Collection {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.colls))
	for n := range s.colls {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*Collection, 0, len(names))
	for _, n := range names {
		out = append(out, s.colls[n])
	}
	return out
}

// SupersOf returns the collections on this host that reference sub as a
// sub-collection (local name or remote qualified reference). This answers
// "which local super-collections must re-announce an event about sub?"
func (s *Store) SupersOf(subHost, subName string) []*Collection {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []*Collection
	for _, c := range s.colls {
		cfg := c.Config()
		for _, ref := range cfg.Subs {
			refHost := ref.Host
			if refHost == "" {
				refHost = s.host
			}
			if refHost == subHost && ref.Name == subName {
				out = append(out, c)
				break
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Config().Name < out[j].Config().Name })
	return out
}
