package collection

import (
	"encoding/xml"
	"errors"
	"fmt"
	"strings"
)

// SubRef is a reference from a collection's configuration file to a
// sub-collection, possibly on another host (paper §3: "the server also
// learns about the existence of sub-collection E on host London" from the
// configuration file).
type SubRef struct {
	// Host names the Greenstone server hosting the sub-collection. An
	// empty host means the sub-collection is local.
	Host string `xml:"Host,omitempty"`
	// Name is the sub-collection's name on its host.
	Name string `xml:"Name"`
}

// String renders "Host.Name" or just "Name" for local references.
func (s SubRef) String() string {
	if s.Host == "" {
		return s.Name
	}
	return s.Host + "." + s.Name
}

// Config is a collection's configuration file.
type Config struct {
	XMLName xml.Name `xml:"CollectionConfig"`
	// Name identifies the collection on its host.
	Name string `xml:"Name"`
	// Title is the display title.
	Title string `xml:"Title,omitempty"`
	// Public collections are visible in their own right; private ones are
	// accessible only as sub-collections (paper §3: London.G).
	Public bool `xml:"Public"`
	// IndexFields lists the metadata fields built into search indexes; this
	// bounds the retrieval (and hence profile) functionality (paper §5).
	IndexFields []string `xml:"IndexFields>Field,omitempty"`
	// Classifiers lists metadata fields with browse classifiers.
	Classifiers []string `xml:"Classifiers>Field,omitempty"`
	// Subs are sub-collection references.
	Subs []SubRef `xml:"SubCollections>Sub,omitempty"`
}

// Validation errors.
var (
	ErrNoName  = errors.New("collection: config missing name")
	ErrBadName = errors.New("collection: invalid collection name")
	ErrDupSub  = errors.New("collection: duplicate sub-collection reference")
	ErrSelfSub = errors.New("collection: collection references itself as sub-collection")
)

// Validate checks structural invariants of the configuration.
func (c *Config) Validate() error {
	if c.Name == "" {
		return ErrNoName
	}
	if strings.ContainsAny(c.Name, ". \t\n") {
		return fmt.Errorf("%w: %q (no dots or whitespace)", ErrBadName, c.Name)
	}
	seen := make(map[string]bool, len(c.Subs))
	for _, s := range c.Subs {
		if s.Name == "" {
			return fmt.Errorf("%w: empty sub name", ErrBadName)
		}
		key := s.String()
		if seen[key] {
			return fmt.Errorf("%w: %s", ErrDupSub, key)
		}
		seen[key] = true
		if s.Host == "" && s.Name == c.Name {
			return ErrSelfSub
		}
	}
	return nil
}

// RemoteSubs returns the sub-collection references that live on other hosts
// — these are the references that require auxiliary profiles (paper §4.2).
func (c *Config) RemoteSubs() []SubRef {
	var out []SubRef
	for _, s := range c.Subs {
		if s.Host != "" {
			out = append(out, s)
		}
	}
	return out
}

// MarshalBytes renders the config file as XML.
func (c *Config) MarshalBytes() ([]byte, error) {
	out, err := xml.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("collection: marshal config %q: %w", c.Name, err)
	}
	return out, nil
}

// ParseConfig parses a configuration file.
func ParseConfig(raw []byte) (*Config, error) {
	var c Config
	if err := xml.Unmarshal(raw, &c); err != nil {
		return nil, fmt.Errorf("collection: parse config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}
