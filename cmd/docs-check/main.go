// Command docs-check keeps the documentation honest. It verifies that:
//
//   - every package directory under internal/ appears in the README's
//     package table, and every table row names an existing directory;
//   - every Go package in the repository (internal/..., cmd/..., examples/)
//     carries a godoc package comment;
//   - every markdown file under docs/ is linked from the README;
//   - experiment references hold: any Go file mentioning EXPERIMENTS.md
//     requires docs/EXPERIMENTS.md to exist, and every experiment id
//     ("experiment E7") cited in Go sources must have a "## E7" section
//     there — so a dangling experiment-doc reference can never regress;
//   - every `gsalert_*` metric name mentioned under docs/ is a declared
//     metric family (the table /metrics and the health rule grammar share);
//   - every Benchmark… function the README or docs/ cite is defined by some
//     _test.go, so a moved or deleted benchmark cannot leave a dangling
//     "run go test -bench=BenchmarkX" behind;
//   - every `-flag` a README or docs/ table row documents in its first cell
//     is defined by some binary (cmd/*) or by the shared ops flags
//     (internal/ops), so a deleted flag cannot leave its row behind;
//   - the frozen benchmark module still builds against this one: the root
//     go.mod's go directive does not exceed bench/go.mod's (go refuses to
//     build bench/ otherwise, and the benchmark run is scored a failure),
//     and bench/go.mod still replaces the root module with "../".
//
// It prints one line per violation and exits non-zero if any were found.
// Run it as `make docs-check`; CI runs it on every push.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	_ "github.com/gsalert/gsalert/internal/health" // declares the engine's own series
	"github.com/gsalert/gsalert/internal/obs"
)

func main() {
	os.Exit(run("."))
}

func run(root string) int {
	var problems []string
	complain := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	readme, err := os.ReadFile(filepath.Join(root, "README.md"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "docs-check: %v\n", err)
		return 1
	}

	checkPackageTable(root, string(readme), complain)
	checkDocComments(root, complain)
	checkDocsLinked(root, string(readme), complain)
	checkExperimentRefs(root, complain)
	checkMetricNames(root, complain)
	checkBenchmarkRefs(root, complain)
	checkFlagRefs(root, complain)
	checkBenchModule(root, complain)

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "docs-check: %s\n", p)
		}
		fmt.Fprintf(os.Stderr, "docs-check: %d problem(s)\n", len(problems))
		return 1
	}
	fmt.Println("docs-check: README package table, package comments, docs/ links, experiment references, metric names, benchmark references, flag references and bench/go.mod are consistent")
	return 0
}

// tableRowRe matches README package-table rows like:
//
//	| `internal/profile` | profile language ... |
var tableRowRe = regexp.MustCompile("(?m)^\\|\\s*`(internal/[a-z0-9_/-]+)`")

// checkPackageTable cross-checks README's package table with internal/.
func checkPackageTable(root, readme string, complain func(string, ...any)) {
	entries, err := os.ReadDir(filepath.Join(root, "internal"))
	if err != nil {
		complain("reading internal/: %v", err)
		return
	}
	dirs := make(map[string]bool)
	for _, e := range entries {
		if e.IsDir() {
			dirs["internal/"+e.Name()] = true
		}
	}
	rows := make(map[string]bool)
	for _, m := range tableRowRe.FindAllStringSubmatch(readme, -1) {
		rows[m[1]] = true
	}
	for d := range dirs {
		if !rows[d] {
			complain("README package table is missing a row for %s", d)
		}
	}
	for r := range rows {
		if !dirs[r] {
			complain("README package table lists %s, which does not exist", r)
		}
	}
}

// checkDocComments verifies every package has a godoc package comment.
func checkDocComments(root string, complain func(string, ...any)) {
	var pkgDirs []string
	for _, base := range []string{"internal", "cmd", "examples"} {
		entries, err := os.ReadDir(filepath.Join(root, base))
		if err != nil {
			continue
		}
		for _, e := range entries {
			if e.IsDir() {
				pkgDirs = append(pkgDirs, filepath.Join(base, e.Name()))
			}
		}
	}
	sort.Strings(pkgDirs)

	fset := token.NewFileSet()
	for _, dir := range pkgDirs {
		files, err := filepath.Glob(filepath.Join(root, dir, "*.go"))
		if err != nil || len(files) == 0 {
			continue
		}
		documented := false
		any := false
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			any = true
			parsed, err := parser.ParseFile(fset, f, nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				complain("parsing %s: %v", f, err)
				continue
			}
			if parsed.Doc != nil && strings.TrimSpace(parsed.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if any && !documented {
			complain("package %s has no godoc package comment", dir)
		}
	}
}

// experimentIDRe matches experiment citations in Go sources, e.g.
// "experiment E7" or "experiments E1".
var experimentIDRe = regexp.MustCompile(`(?i)\bexperiments?\s+(E\d+)\b`)

// experimentHeadingRe matches the index sections of docs/EXPERIMENTS.md.
var experimentHeadingRe = regexp.MustCompile(`(?m)^## (E\d+)\b`)

// checkExperimentRefs verifies that experiment references from Go sources
// resolve: a mention of EXPERIMENTS.md requires docs/EXPERIMENTS.md to
// exist, and every cited experiment id must have a section there.
func checkExperimentRefs(root string, complain func(string, ...any)) {
	type ref struct{ file, id string }
	var mentionsDoc []string
	var ids []ref
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, relErr := filepath.Rel(root, path)
		if relErr != nil {
			rel = path
		}
		rel = filepath.ToSlash(rel)
		if strings.Contains(string(raw), "EXPERIMENTS.md") {
			mentionsDoc = append(mentionsDoc, rel)
		}
		for _, m := range experimentIDRe.FindAllStringSubmatch(string(raw), -1) {
			ids = append(ids, ref{file: rel, id: strings.ToUpper(m[1])})
		}
		return nil
	})
	if err != nil {
		complain("scanning for experiment references: %v", err)
		return
	}
	if len(mentionsDoc) == 0 && len(ids) == 0 {
		return
	}
	expPath := filepath.Join(root, "docs", "EXPERIMENTS.md")
	raw, err := os.ReadFile(expPath)
	if err != nil {
		for _, f := range mentionsDoc {
			complain("%s references EXPERIMENTS.md, but docs/EXPERIMENTS.md does not exist", f)
		}
		if len(mentionsDoc) == 0 {
			complain("Go sources cite experiment ids, but docs/EXPERIMENTS.md does not exist")
		}
		return
	}
	have := make(map[string]bool)
	for _, m := range experimentHeadingRe.FindAllStringSubmatch(string(raw), -1) {
		have[strings.ToUpper(m[1])] = true
	}
	complained := make(map[string]bool)
	for _, r := range ids {
		if have[r.id] || complained[r.id] {
			continue
		}
		complained[r.id] = true
		complain("%s cites experiment %s, which has no \"## %s\" section in docs/EXPERIMENTS.md", r.file, r.id, r.id)
	}
}

// checkDocsLinked verifies every file under docs/ is referenced by README.
func checkDocsLinked(root, readme string, complain func(string, ...any)) {
	docs, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		return
	}
	for _, d := range docs {
		rel, err := filepath.Rel(root, d)
		if err != nil {
			continue
		}
		rel = filepath.ToSlash(rel)
		if !strings.Contains(readme, rel) {
			complain("%s is not linked from README.md", rel)
		}
	}
}

// metricNameRe matches gsalert_* series names in prose; a trailing
// underscore is what a family glob such as `gsalert_exporter_*` leaves.
var metricNameRe = regexp.MustCompile(`gsalert_[a-z0-9_]+`)

// histogramSeriesRe strips the per-series suffixes of a histogram family.
var histogramSeriesRe = regexp.MustCompile(`_(bucket|sum|count)$`)

// checkMetricNames verifies every gsalert_* name under docs/ against
// obs.Declared(): a documented series that no Register* can emit (a typo, a
// renamed or retired family) is a docs bug.
func checkMetricNames(root string, complain func(string, ...any)) {
	declared := obs.Declared()
	docs, _ := filepath.Glob(filepath.Join(root, "docs", "*.md")) // the pattern is constant
	for _, d := range docs {
		raw, err := os.ReadFile(d)
		if err != nil {
			complain("reading %s: %v", d, err)
			continue
		}
		complained := make(map[string]bool)
	names:
		for _, name := range metricNameRe.FindAllString(string(raw), -1) {
			_, exact := declared[name]
			if kind, ok := declared[histogramSeriesRe.ReplaceAllString(name, "")]; exact || complained[name] || ok && kind == obs.KindHistogram {
				continue
			}
			for family := range declared {
				if strings.HasSuffix(name, "_") && strings.HasPrefix(family, name) {
					continue names
				}
			}
			complained[name] = true
			complain("docs/%s mentions %s, which is not a declared metric family", filepath.Base(d), name)
		}
	}
}

// benchmarkDefRe matches a benchmark definition in a _test.go file;
// benchmarkRefRe a citation in prose (sub-benchmark suffixes such as
// "/rules=10" fall outside the name).
var (
	benchmarkDefRe = regexp.MustCompile(`(?m)^func (Benchmark[A-Z]\w*)\(`)
	benchmarkRefRe = regexp.MustCompile(`\bBenchmark[A-Z]\w*`)
)

// checkBenchmarkRefs verifies every Benchmark… name cited by README.md or
// docs/*.md against the benchmarks the repository's _test.go files define.
func checkBenchmarkRefs(root string, complain func(string, ...any)) {
	defined := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range benchmarkDefRe.FindAllSubmatch(raw, -1) {
			defined[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		complain("scanning for benchmark definitions: %v", err)
		return
	}
	docs, _ := filepath.Glob(filepath.Join(root, "docs", "*.md")) // the pattern is constant
	for _, f := range append([]string{filepath.Join(root, "README.md")}, docs...) {
		raw, err := os.ReadFile(f)
		if err != nil {
			complain("reading %s: %v", f, err)
			continue
		}
		complained := make(map[string]bool)
		for _, name := range benchmarkRefRe.FindAllString(string(raw), -1) {
			if defined[name] || complained[name] {
				continue
			}
			complained[name] = true
			complain("%s cites %s, which no _test.go defines", f, name)
		}
	}
}

var (
	// tableFirstCellRe captures the first cell of a markdown table row;
	// flagRefRe a backticked flag in it ("`-a` / `-b`" documents both).
	tableFirstCellRe = regexp.MustCompile(`(?m)^\|([^|\n]*)\|`)
	flagRefRe        = regexp.MustCompile("`-([a-z][a-z0-9-]*)`")
	// flagDefinerRe matches the flag package's definition functions, on the
	// package (flag.String) or on a FlagSet (fs.StringVar).
	flagDefinerRe = regexp.MustCompile(`^(Bool|Duration|Float64|Int|Int64|String|Uint|Uint64|Text|Func|BoolFunc)(Var)?$|^Var$`)
)

// checkFlagRefs verifies every flag a README.md or docs/*.md table documents
// in a row's first cell against the flags the binaries define.
func checkFlagRefs(root string, complain func(string, ...any)) {
	defined, err := definedFlags(root)
	if err != nil {
		complain("scanning flag definitions: %v", err)
		return
	}
	docs, _ := filepath.Glob(filepath.Join(root, "docs", "*.md")) // the pattern is constant
	for _, f := range append([]string{filepath.Join(root, "README.md")}, docs...) {
		raw, err := os.ReadFile(f)
		if err != nil {
			complain("reading %s: %v", f, err)
			continue
		}
		complained := make(map[string]bool)
		for _, cell := range tableFirstCellRe.FindAllStringSubmatch(string(raw), -1) {
			for _, m := range flagRefRe.FindAllStringSubmatch(cell[1], -1) {
				if defined[m[1]] || complained[m[1]] {
					continue
				}
				complained[m[1]] = true
				complain("%s documents -%s, which no binary defines", f, m[1])
			}
		}
	}
}

// definedFlags collects the flag names defined in cmd/* and internal/ops:
// the string-literal name argument of every flag.* or fs.* definition call.
func definedFlags(root string) (map[string]bool, error) {
	files, err := filepath.Glob(filepath.Join(root, "cmd", "*", "*.go"))
	if err != nil {
		return nil, err
	}
	ops, err := filepath.Glob(filepath.Join(root, "internal", "ops", "*.go"))
	if err != nil {
		return nil, err
	}
	defined := make(map[string]bool)
	fset := token.NewFileSet()
	for _, f := range append(files, ops...) {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		parsed, err := parser.ParseFile(fset, f, nil, 0)
		if err != nil {
			return nil, err
		}
		ast.Inspect(parsed, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !flagDefinerRe.MatchString(sel.Sel.Name) {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" && pkg.Name != "fs" {
				return true
			}
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					if name, err := strconv.Unquote(lit.Value); err == nil {
						defined[name] = true
					}
					break
				}
			}
			return true
		})
	}
	return defined, nil
}

var (
	goDirectiveRe = regexp.MustCompile(`(?m)^go (\d+)\.(\d+)`)
	moduleRe      = regexp.MustCompile(`(?m)^module (\S+)`)
)

// checkBenchModule verifies what bench/ (a frozen module of its own, which
// the root build never compiles) needs of the root go.mod: a go directive no
// newer than its own, and its replace directive.
func checkBenchModule(root string, complain func(string, ...any)) {
	rootMod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		complain("reading go.mod: %v", err)
		return
	}
	benchMod, err := os.ReadFile(filepath.Join(root, "bench", "go.mod"))
	if err != nil {
		complain("reading bench/go.mod: %v", err)
		return
	}
	// version returns the go directive as written and as a comparable
	// number, or -1 after complaining that there is none.
	version := func(file string, raw []byte) (string, int) {
		m := goDirectiveRe.FindSubmatch(raw)
		if m == nil {
			complain("%s has no go directive", file)
			return "", -1
		}
		major, _ := strconv.Atoi(string(m[1])) // the pattern admits digits only
		minor, _ := strconv.Atoi(string(m[2]))
		return string(m[0]), major*1000 + minor
	}
	rootGo, rv := version("go.mod", rootMod)
	benchGo, bv := version("bench/go.mod", benchMod)
	if bv >= 0 && rv > bv {
		complain("go.mod says %q but bench/go.mod says %q: `bash bench/run.sh` would stop with \"updates to go.mod needed\"",
			rootGo, benchGo)
	}
	if m := moduleRe.FindSubmatch(rootMod); m == nil {
		complain("go.mod has no module line")
	} else if want := "replace " + string(m[1]) + " => ../"; !strings.Contains(string(benchMod), want) {
		complain("bench/go.mod lacks %q: gsbench would not build against this tree", want)
	}
}
