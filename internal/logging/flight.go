package logging

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
)

// FlightConfig assembles a FlightRecorder around a Recorder.
type FlightConfig struct {
	// Recorder is the ring owner whose records bundles snapshot. Required.
	Recorder *Recorder
	// Stats, when set, returns the current operational snapshot (the
	// /stats payload) to embed in each bundle. It must be JSON-marshalable.
	Stats func() any
	// TraceIDs, when set, returns the IDs of the traces currently retained
	// in the span collector; the bundle records them (sorted) so every
	// log record's trace_id can be resolved against the span trees that
	// were live at capture time.
	TraceIDs func() []string
	// Dir, when set, is where DumpToDir writes timestamped bundles.
	Dir string
}

// FlightRecorder captures post-mortem bundles: the black-box JSONL
// snapshot taken when the health plane turns a component critical,
// served on demand from GET /debug/flightrecorder, and written to disk
// by the server binaries. It is safe for concurrent use; emitters are
// never blocked by a capture (the rings are lock-free).
type FlightRecorder struct {
	cfg   FlightConfig
	dumps atomic.Int64
}

// NewFlightRecorder builds a flight recorder; it panics on a nil
// Recorder (a wiring error, like duplicate metric registration).
func NewFlightRecorder(cfg FlightConfig) *FlightRecorder {
	if cfg.Recorder == nil {
		panic("logging: FlightConfig.Recorder is required")
	}
	return &FlightRecorder{cfg: cfg}
}

// Dumps reports bundles captured since construction (the
// gsalert_logging_dumps_total series).
func (f *FlightRecorder) Dumps() int64 { return f.dumps.Load() }

// Dump is one captured bundle.
type Dump struct {
	// Seq numbers captures within this process (1-based).
	Seq int64
	// TakenUnixNano is the capture time on the Recorder's clock.
	TakenUnixNano int64
	// Reason names the trigger: "critical:<component>" for automatic
	// health captures, "manual" for /debug/flightrecorder and CLI pulls.
	Reason string
	// Records is every retained ring record, sorted by (component, seq).
	Records []*Record
	// Stats is the marshalled /stats payload (nil when unconfigured).
	Stats json.RawMessage
	// TraceIDs are the retained trace IDs, sorted (nil when unconfigured).
	TraceIDs []string
}

// Components returns the distinct component names present in the dump's
// records, sorted.
func (d *Dump) Components() []string {
	seen := make(map[string]bool)
	var out []string
	for _, r := range d.Records {
		if !seen[r.Component] {
			seen[r.Component] = true
			out = append(out, r.Component)
		}
	}
	sort.Strings(out)
	return out
}

// Dump captures one bundle.
func (f *FlightRecorder) Dump(reason string) (*Dump, error) {
	d := &Dump{
		Seq:           f.dumps.Add(1),
		TakenUnixNano: f.cfg.Recorder.clock().UnixNano(),
		Reason:        reason,
		Records:       f.cfg.Recorder.Snapshot(),
	}
	if f.cfg.Stats != nil {
		raw, err := json.Marshal(f.cfg.Stats())
		if err != nil {
			return nil, fmt.Errorf("logging: flight stats: %w", err)
		}
		d.Stats = raw
	}
	if f.cfg.TraceIDs != nil {
		ids := append([]string(nil), f.cfg.TraceIDs()...)
		sort.Strings(ids)
		d.TraceIDs = ids
	}
	return d, nil
}

// jsonlHeader is the bundle's first line.
type jsonlHeader struct {
	Kind          string   `json:"kind"` // "header"
	Seq           int64    `json:"seq"`
	TakenUnixNano int64    `json:"taken_unix_nano"`
	Reason        string   `json:"reason"`
	Records       int      `json:"records"`
	Components    []string `json:"components"`
}

// jsonlRecord wraps one ring record line.
type jsonlRecord struct {
	Kind string `json:"kind"` // "record"
	*Record
}

// jsonlStats carries the /stats payload line.
type jsonlStats struct {
	Kind  string          `json:"kind"` // "stats"
	Stats json.RawMessage `json:"stats"`
}

// jsonlTraces carries the retained-trace index line.
type jsonlTraces struct {
	Kind     string   `json:"kind"` // "traces"
	Count    int      `json:"count"`
	TraceIDs []string `json:"trace_ids"`
}

// MarshalJSONL renders the bundle: one header line, one line per record
// in (component, seq) order, then the stats and trace-index lines when
// present. The rendering is deterministic — identical state produces
// byte-identical bundles, which E19 asserts across replayed soaks.
func (d *Dump) MarshalJSONL() ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(jsonlHeader{
		Kind: "header", Seq: d.Seq, TakenUnixNano: d.TakenUnixNano,
		Reason: d.Reason, Records: len(d.Records), Components: d.Components(),
	}); err != nil {
		return nil, err
	}
	for _, r := range d.Records {
		if err := enc.Encode(jsonlRecord{Kind: "record", Record: r}); err != nil {
			return nil, err
		}
	}
	if d.Stats != nil {
		if err := enc.Encode(jsonlStats{Kind: "stats", Stats: d.Stats}); err != nil {
			return nil, err
		}
	}
	if d.TraceIDs != nil {
		if err := enc.Encode(jsonlTraces{Kind: "traces", Count: len(d.TraceIDs), TraceIDs: d.TraceIDs}); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// DumpJSONL captures one bundle and renders it in one call — the
// /debug/flightrecorder response body.
func (f *FlightRecorder) DumpJSONL(reason string) ([]byte, error) {
	d, err := f.Dump(reason)
	if err != nil {
		return nil, err
	}
	return d.MarshalJSONL()
}

// DumpToDir captures one bundle and writes it under cfg.Dir as
// flight-<unix-nanos>-<seq>.jsonl, creating the directory on first use.
// Returns the written path.
func (f *FlightRecorder) DumpToDir(reason string) (string, error) {
	if f.cfg.Dir == "" {
		return "", fmt.Errorf("logging: flight recorder has no dump directory")
	}
	d, err := f.Dump(reason)
	if err != nil {
		return "", err
	}
	raw, err := d.MarshalJSONL()
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(f.cfg.Dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(f.cfg.Dir, fmt.Sprintf("flight-%d-%d.jsonl", d.TakenUnixNano, d.Seq))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// ParseJSONL inverts MarshalJSONL — `gs-client logs` uses it to render a
// pulled bundle, and tests round-trip dumps through it.
func ParseJSONL(raw []byte) (*Dump, error) {
	d := &Dump{}
	dec := json.NewDecoder(bytes.NewReader(raw))
	first := true
	for dec.More() {
		var kind struct {
			Kind string `json:"kind"`
		}
		var line json.RawMessage
		if err := dec.Decode(&line); err != nil {
			return nil, fmt.Errorf("logging: parse bundle: %w", err)
		}
		if err := json.Unmarshal(line, &kind); err != nil {
			return nil, fmt.Errorf("logging: parse bundle line: %w", err)
		}
		switch kind.Kind {
		case "header":
			var h jsonlHeader
			if err := json.Unmarshal(line, &h); err != nil {
				return nil, err
			}
			d.Seq, d.TakenUnixNano, d.Reason = h.Seq, h.TakenUnixNano, h.Reason
		case "record":
			var r Record
			if err := json.Unmarshal(line, &r); err != nil {
				return nil, err
			}
			d.Records = append(d.Records, &r)
		case "stats":
			var s jsonlStats
			if err := json.Unmarshal(line, &s); err != nil {
				return nil, err
			}
			d.Stats = s.Stats
		case "traces":
			var t jsonlTraces
			if err := json.Unmarshal(line, &t); err != nil {
				return nil, err
			}
			d.TraceIDs = t.TraceIDs
		default:
			return nil, fmt.Errorf("logging: bundle line %q: unknown kind", kind.Kind)
		}
		if first && kind.Kind != "header" {
			return nil, fmt.Errorf("logging: bundle must start with a header line, got %q", kind.Kind)
		}
		first = false
	}
	if first {
		return nil, fmt.Errorf("logging: empty bundle")
	}
	return d, nil
}
