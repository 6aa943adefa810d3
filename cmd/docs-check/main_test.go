package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepositoryDocs runs the whole check over this checkout, so plain
// `go test ./...` fails on doc drift.
func TestRepositoryDocs(t *testing.T) {
	if code := run("../.."); code != 0 {
		t.Fatalf("docs-check exited %d (problems are on stderr)", code)
	}
}

// TestBenchModuleVets compiles the frozen benchmark module, which the root
// build never sees: an internal/* rename that breaks gsbench fails here
// rather than in the benchmark run.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles bench/")
	}
	out, err := exec.Command("go", "-C", "../../bench", "vet", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go -C bench vet ./...: %v\n%s", err, out)
	}
}

func TestCheckFlagRefs(t *testing.T) {
	const binary = `package main

import "flag"

func main() {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	fs.IntVar(new(int), "depth", 1, "")
	_ = flag.String("name", "", "")
}
`
	const ops = `package ops

import "flag"

func register(fs *flag.FlagSet) { fs.Bool("health", false, "") }
`
	cases := []struct {
		name, readme, want string
	}{
		{"defined", "| `-depth` | 1 | queue depth |\n| `-name` | x | name |\n", ""},
		{"ops flag", "| `-health` | off | health plane |\n", ""},
		{"undefined", "| `-overflow` | block | policy |\n", "-overflow"},
		{"slash pair", "| `-depth` / `-weights` | 1 / 8:4:1 | knobs |\n", "-weights"},
		{"outside first cell", "| `-depth` | 1 | also see `-gone` |\nprose `-gone`\n", ""},
		{"flag set name", "| `-x` | | |\n", "-x"},
		{"test-only flag", "| `-test-only` | | |\n", "-test-only"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for file, body := range map[string]string{
				"README.md":              tc.readme,
				"cmd/x/main.go":          binary,
				"internal/ops/ops.go":    ops,
				"internal/ops/x_test.go": "package ops\n\nimport \"flag\"\n\nvar _ = flag.Int(\"test-only\", 0, \"\")\n",
			} {
				path := filepath.Join(dir, file)
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var got []string
			checkFlagRefs(dir, func(format string, args ...any) { got = append(got, fmt.Sprintf(format, args...)) })
			switch {
			case tc.want == "" && len(got) > 0:
				t.Errorf("complained: %v", got)
			case tc.want != "" && (len(got) != 1 || !strings.Contains(got[0], tc.want)):
				t.Errorf("complaints = %v, want one naming %s", got, tc.want)
			}
		})
	}
}

func TestCheckBenchModule(t *testing.T) {
	const replace = "\nreplace example.org/m => ../\n"
	cases := []struct {
		name, root, bench, want string
	}{
		{"equal", "go 1.22", "go 1.22" + replace, ""},
		{"bench newer", "go 1.22", "go 1.24" + replace, ""},
		{"root newer", "go 1.24", "go 1.22" + replace, "updates to go.mod needed"},
		{"root newer major", "go 2.0", "go 1.22" + replace, "updates to go.mod needed"},
		{"no replace", "go 1.22", "go 1.22\n", "lacks"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.Mkdir(filepath.Join(dir, "bench"), 0o755); err != nil {
				t.Fatal(err)
			}
			for file, body := range map[string]string{
				"go.mod":       "module example.org/m\n\n" + tc.root + "\n",
				"bench/go.mod": "module example.org/m/bench\n\n" + tc.bench,
			} {
				if err := os.WriteFile(filepath.Join(dir, file), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var got []string
			checkBenchModule(dir, func(format string, _ ...any) { got = append(got, format) })
			switch {
			case tc.want == "" && len(got) > 0:
				t.Errorf("complained: %v", got)
			case tc.want != "" && (len(got) != 1 || !strings.Contains(got[0], tc.want)):
				t.Errorf("complaints = %v, want one containing %q", got, tc.want)
			}
		})
	}
}
