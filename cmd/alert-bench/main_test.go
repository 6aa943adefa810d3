package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestUnknownExperimentRejected: a misspelt -only id must fail before any
// experiment runs, or a gate such as `-only e16,e19` would pass by running
// nothing.
func TestUnknownExperimentRejected(t *testing.T) {
	for _, only := range []string{"e99", "e16,e99", "e6,", "E3x"} {
		var out bytes.Buffer
		if code := run([]string{"-only", only}, &out); code != 2 {
			t.Errorf("-only %s: exit %d, want 2", only, code)
		}
		if out.Len() != 0 {
			t.Errorf("-only %s: printed %q, want nothing", only, out.String())
		}
	}
}

func TestOnlyRunsNamedExperiment(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"-only", " E6 "}, &out); code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if got := out.String(); !strings.HasPrefix(got, "E6 — partition recovery") || strings.Count(got, "\nE") != 0 {
		t.Fatalf("output is not exactly the E6 table:\n%s", got)
	}
}
