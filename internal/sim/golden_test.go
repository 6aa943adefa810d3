package sim

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/gsalert/gsalert/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite testdata/tables.golden")

// cellGap splits a rendered table line into cells: metrics.Table pads
// columns with at least two spaces, and no cell contains two in a row.
var cellGap = regexp.MustCompile(` {2,}`)

// maskColumns re-renders a table with the named columns' cells replaced by
// "~" and cells joined by " | " (masking changes cell widths, so the
// aligned layout cannot be kept). The rule under a masked header is fixed at
// eight dashes: its rendered width follows the widest masked value, which
// varies with the value.
func maskColumns(rendered string, masked ...string) string {
	lines := strings.Split(strings.TrimRight(rendered, "\n"), "\n")
	var hide map[int]bool
	var b strings.Builder
	for i, line := range lines {
		cells := cellGap.Split(strings.TrimRight(line, " "), -1)
		switch {
		case i == 0: // title
		case i == 1: // headers
			hide = make(map[int]bool)
			for j, h := range cells {
				for _, m := range masked {
					if h == m {
						hide[j] = true
					}
				}
			}
		case strings.Trim(line, "- ") == "": // rule under the headers
			for j := range cells {
				if hide[j] {
					cells[j] = "--------"
				}
			}
		default:
			for j := range cells {
				if hide[j] {
					cells[j] = "~"
				}
			}
		}
		b.WriteString(strings.Join(cells, " | "))
		b.WriteByte('\n')
	}
	return b.String()
}

// TestExperimentTablesGolden is the byte fence around the experiment
// harness: every seed-deterministic table alert-bench prints, at
// alert-bench's own seed and (E2's 250- and 1000-server rows aside) its own
// parameters, must render exactly as testdata/tables.golden records. Two
// columns vary between runs of one binary and are masked: E14 "messages"
// (replication acks ride delivery flush batching, ±1) and E15 "rt p99"
// (wall-clock latency). Regenerate with `go test ./internal/sim -run
// TestExperimentTablesGolden -update` — but a refactor of the harness must
// not need to.
func TestExperimentTablesGolden(t *testing.T) {
	const seed = 2005
	type tableFn func() (*metrics.Table, error)
	steps := []struct {
		id     string
		run    tableFn
		masked []string
	}{
		{"e2", func() (*metrics.Table, error) { return GDSScaleTable([]int{10, 50, 100}, []int{2, 4, 8}, seed) }, nil},
		{"e3", func() (*metrics.Table, error) { return RoutingComparisonTable(64, []float64{0, 0.3, 0.6, 0.9}, seed) }, nil},
		{"e5", func() (*metrics.Table, error) { return AuxChainTable([]int{1, 2, 3, 4, 5}, seed) }, nil},
		{"e6", func() (*metrics.Table, error) {
			r, err := RunPartitionRecovery(5, seed)
			if err != nil {
				return nil, err
			}
			tbl := metrics.NewTable("E6 — partition recovery (rebuilds under a cut super/sub link)",
				"cycles", "notifs during cut", "notifs after heal", "peak queue")
			tbl.AddRow(r.Cycles, r.DuringPartition, r.AfterHeal, r.QueuedPeak)
			return tbl, nil
		}, nil},
		{"e7", func() (*metrics.Table, error) { return LossTable(24, 10, []float64{0, 0.01, 0.05, 0.1, 0.2}, seed) }, nil},
		{"e9", func() (*metrics.Table, error) { return MulticastAblationTable(32, 10, []int{1, 4, 8, 16, 31}, seed) }, nil},
		{"e10", func() (*metrics.Table, error) { return DeliveryRecoveryTable([]int{1, 5, 25, 100}, seed) }, nil},
		{"e12", func() (*metrics.Table, error) { return ContentRoutingTable(16, 4, 5, seed) }, nil},
		{"e13", func() (*metrics.Table, error) { return CompositeAlertsTable(16, 4, seed) }, nil},
		{"e14", func() (*metrics.Table, error) { return ReplicaFailoverTable(16, 6, seed) }, []string{"messages"}},
		{"e15", func() (*metrics.Table, error) { return QoSOverloadTable(16, 30, 3, seed) }, []string{"rt p99"}},
		{"e18", func() (*metrics.Table, error) { return HealthTable(8, 8, 2, 4, seed) }, nil},
	}
	var got bytes.Buffer
	for _, s := range steps {
		tbl, err := s.run()
		if err != nil {
			t.Fatalf("%s: %v", s.id, err)
		}
		out := tbl.Render()
		if len(s.masked) > 0 {
			out = maskColumns(out, s.masked...)
		}
		got.WriteString(out)
		got.WriteByte('\n')
	}

	path := filepath.Join("testdata", "tables.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("experiment tables drifted from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got.Bytes(), want)
	}
}
