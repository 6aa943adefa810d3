package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("value = %d", c.Value())
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 805 {
		t.Errorf("concurrent value = %d", c.Value())
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("Demo", "name", "count", "ratio", "dur")
	tb.AddRow("alpha", 10, 0.123456, 1500*time.Microsecond)
	tb.AddRow("beta-long-name", 2000, 99.5, time.Second)
	out := tb.Render()
	if !strings.Contains(out, "Demo") {
		t.Error("missing title")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, headers, separator, 2 rows
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[3], "0.123") {
		t.Errorf("float formatting: %q", lines[3])
	}
	if !strings.Contains(lines[3], "1.5ms") {
		t.Errorf("duration formatting: %q", lines[3])
	}
	if !strings.Contains(lines[4], "99.5") {
		t.Errorf("large float formatting: %q", lines[4])
	}
	// Columns align: header and separator have equal prefix widths.
	if tb.Rows() != 2 {
		t.Errorf("rows = %d", tb.Rows())
	}
}

func TestTableWholeFloats(t *testing.T) {
	tb := NewTable("", "v")
	tb.AddRow(42.0)
	if !strings.Contains(tb.Render(), "42") || strings.Contains(tb.Render(), "42.0") {
		t.Errorf("whole float: %s", tb.Render())
	}
}
