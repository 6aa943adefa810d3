package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload at 1/100 scale, end to end and traced:
// nothing may fail, every metric BENCHMARK.json names must be printed exactly
// once, and the traced run's span table must be a forest.
func TestSmoke(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	var endToEnd, perLayer []string
	for _, m := range bf.EndToEnd {
		endToEnd = append(endToEnd, m.Name)
	}
	for _, m := range bf.PerLayer {
		perLayer = append(perLayer, m.Name)
	}
	for _, sp := range workloads {
		for _, traced := range []bool{false, true} {
			// Printed beside the end-to-end metrics, not in BENCHMARK.json.
			name, want := sp.name, append([]string{"publish_p99_ms", "notify_p99_ms", "churn_p99_us"}, endToEnd...)
			if traced {
				name, want = sp.name+"/traced", perLayer
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				var out bytes.Buffer
				o := options{seed: 7, seconds: 0.5, scale: 0.01, out: t.TempDir()}
				res, err := runOne(o, sp, traced, &out)
				if err != nil {
					t.Fatal(err)
				}
				if res.failed != 0 {
					t.Errorf("failed_share != 0: %d of %d failed", res.failed, res.attempted)
				}
				for _, p := range res.problems {
					// Whether a rate was held says nothing at this scale, eight
					// deployments to two cores, possibly under the race detector.
					if !strings.HasPrefix(p, "unsustainable") {
						t.Error(p)
					}
				}
				checkMetricLines(t, sp.name, out.String(), want)
				if traced {
					checkForest(t, res.spans)
				}
			})
		}
	}
}

func checkMetricLines(t *testing.T, workload, out string, want []string) {
	t.Helper()
	printed := make(map[string]int)
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) < 4 || f[0] != workload {
			continue
		}
		if !metricName.MatchString(f[1]) {
			t.Errorf("metric name %q does not match %s", f[1], metricName)
		}
		printed[f[1]]++
	}
	for _, name := range want {
		if printed[name] != 1 {
			t.Errorf("metric %s printed %d times, want once", name, printed[name])
		}
		delete(printed, name)
	}
	for name := range printed {
		t.Errorf("metric %s printed but not in BENCHMARK.json", name)
	}
}

func checkForest(t *testing.T, spans []spanRec) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	roots := 0
	for i, s := range spans {
		if s.ID != int32(i+1) {
			t.Fatalf("span %d has ID %d", i, s.ID)
		}
		switch {
		case s.Parent == 0:
			roots++
		case s.Parent < 0 || int(s.Parent) > len(spans) || s.Parent >= s.ID:
			t.Errorf("span %d (%s): parent %d does not exist", s.ID, s.Name, s.Parent)
		}
	}
	if roots == 0 || roots == len(spans) {
		t.Errorf("%d roots among %d spans: no tree was recorded", roots, len(spans))
	}
}
