package kspot

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestCISelectorsMatch: every `go test … -run '<re>' <pkgs>` in the CI
// workflow selects something — each |-alternative of its pattern matches a
// top-level Test, Fuzz, Benchmark or Example func of the packages it names (a
// package pattern such as ./... names no directory, so it fails loudly
// here too). go test passes a selector that matches nothing as "no tests
// to run", so a test renamed or folded away would otherwise leave its CI
// step silently empty.
func TestCISelectorsMatch(t *testing.T) {
	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	runFlag := regexp.MustCompile(`-run '([^']*)'`)
	selectors := 0
	for _, line := range strings.Split(string(yml), "\n") {
		m := runFlag.FindStringSubmatch(line)
		if !strings.Contains(line, "go test ") || m == nil || m[1] == "^$" { // ^$ runs benchmarks or fuzzers only
			continue
		}
		var pkgs []string
		for _, f := range strings.Fields(line) {
			if f == "." || strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
			}
		}
		if len(pkgs) == 0 {
			pkgs = []string{"."}
		}
		funcs := testFuncs(t, pkgs)
		for _, alt := range alternatives(m[1]) {
			if !slices.ContainsFunc(funcs, regexp.MustCompile(alt).MatchString) {
				t.Errorf("ci.yml: -run alternative %q selects no test func in %v", alt, pkgs)
			}
		}
		selectors++
	}
	if selectors == 0 {
		t.Fatal("ci.yml holds no go test -run selector")
	}
}

// alternatives splits a -run pattern at its top-level |, each alternative
// keeping the anchors of an enclosing ^(…)$ group.
func alternatives(pattern string) []string {
	if inner, ok := strings.CutPrefix(pattern, "^("); ok {
		if inner, ok = strings.CutSuffix(inner, ")$"); ok {
			var alts []string
			for _, a := range strings.Split(inner, "|") {
				alts = append(alts, "^"+a+"$")
			}
			return alts
		}
	}
	return strings.Split(pattern, "|")
}

// testFuncs lists the top-level Test, Fuzz, Benchmark and Example funcs
// declared in the packages' test files.
func testFuncs(t *testing.T, pkgs []string) []string {
	t.Helper()
	name := regexp.MustCompile(`^(Test|Fuzz|Benchmark|Example)`)
	var funcs []string
	for _, dir := range pkgs {
		files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
		for _, file := range files {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, decl := range f.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && name.MatchString(fn.Name.Name) {
					funcs = append(funcs, fn.Name.Name)
				}
			}
		}
	}
	return funcs
}
