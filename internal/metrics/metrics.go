// Package metrics provides the counters, latency histograms and fixed-width
// table rendering used by the experiment harness to print the tables
// recorded in docs/EXPERIMENTS.md.
package metrics

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value. It sits on the
// per-notification hot path of the delivery pipeline (and, with replication
// on, is bumped twice per notification), so it is a lock-free atomic rather
// than a mutex-guarded integer.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Table renders experiment results as an aligned fixed-width text table.
type Table struct {
	Title   string
	Headers []string
	rows    [][]string
}

// NewTable builds a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends a row; values are formatted with %v, floats with 3
// significant decimals, durations in natural units.
func (t *Table) AddRow(values ...any) {
	row := make([]string, 0, len(values))
	for _, v := range values {
		row = append(row, formatCell(v))
	}
	t.rows = append(t.rows, row)
}

func formatCell(v any) string {
	switch x := v.(type) {
	case float64:
		return formatFloat(x)
	case float32:
		return formatFloat(float64(x))
	case time.Duration:
		return x.Round(time.Microsecond).String()
	case string:
		return x
	default:
		return fmt.Sprintf("%v", v)
	}
}

func formatFloat(f float64) string {
	switch {
	case f == math.Trunc(f) && math.Abs(f) < 1e9:
		return fmt.Sprintf("%.0f", f)
	case math.Abs(f) >= 100:
		return fmt.Sprintf("%.1f", f)
	default:
		return fmt.Sprintf("%.3f", f)
	}
}

// Render returns the aligned table as a string.
func (t *Table) Render() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(cells)-1 {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		b.WriteByte('\n')
	}
	writeRow(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Rows reports the number of data rows.
func (t *Table) Rows() int { return len(t.rows) }
