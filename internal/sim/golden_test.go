package sim

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
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
// harness: every table of the Experiments registry that is not Unfenced — so
// what alert-bench prints, at its default seed and parameters — must render
// exactly as testdata/tables.golden records, with the registry's Masked
// columns masked. The one override is E2's size list: the 250- and
// 1000-server rows take minutes. Regenerate with `go test ./internal/sim
// -run TestExperimentTablesGolden -update` — but a refactor of the harness
// must not need to.
func TestExperimentTablesGolden(t *testing.T) {
	p := DefaultParams()
	p.GDSSizes = p.GDSSizes[:3]
	var got bytes.Buffer
	for _, e := range Experiments() {
		if e.Unfenced {
			continue
		}
		tbl, err := e.Table(p)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		out := tbl.Render()
		if len(e.Masked) > 0 {
			out = maskColumns(out, e.Masked...)
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
