// Package analysistest runs a framework.Analyzer over a fixture package
// and checks its diagnostics against `// want "regexp"` comments, the same
// contract as golang.org/x/tools/go/analysis/analysistest:
//
//	for j, it := range m { // want `map iteration order`
//
// A line may carry several quoted expectations. Every reported diagnostic
// must match an expectation on its line and every expectation must be
// matched by a diagnostic — unexpected and missing findings both fail the
// test, each with its file:line. Suppression directives are exercised for
// real: a fixture line carrying `//spardl:<name>-ok reason` and no want
// comment passes only if the suppression actually absorbs the finding.
//
// A fixture directory may contain subdirectories; each becomes its own
// package, importable by siblings as "spardl/fixture/<subdir>" — the way
// cross-package fact propagation is tested. All packages go through one
// framework.Run (shared fact store) in dependency order, and want comments
// are honored in every file of every package in the tree.
package analysistest

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"spardl/internal/analysis/framework"
)

// wantRE extracts the quoted patterns of one `// want` comment. Both
// interpreted (`"..."`) and raw (backquoted) Go strings are accepted.
var wantRE = regexp.MustCompile("//[ \t]*want[ \t]+((?:(?:\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`)[ \t]*)+)")

var wantArgRE = regexp.MustCompile("\"(?:[^\"\\\\]|\\\\.)*\"|`[^`]*`")

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads the fixture tree rooted at dir (e.g. "testdata/nodeterm"),
// runs the analyzer (plus its Requires closure) over each of its packages
// in dependency order with a shared fact store, and reports mismatches
// between diagnostics and want comments.
func Run(t *testing.T, dir string, a *framework.Analyzer) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := framework.LoadFixtureTree(abs)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	var expects []*expectation
	for _, pkg := range pkgs {
		es, err := parseExpectations(pkg.Dir)
		if err != nil {
			t.Fatal(err)
		}
		expects = append(expects, es...)
	}
	diags, err := framework.Run(pkgs, a)
	if err != nil {
		t.Fatalf("running %s over %s: %v", a.Name, dir, err)
	}
	for _, d := range diags {
		if !consume(expects, d.Pos.Filename, d.Pos.Line, d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", d.Pos, d.Message)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.pattern)
		}
	}
}

func consume(expects []*expectation, file string, line int, msg string) bool {
	for _, e := range expects {
		if !e.matched && e.file == file && e.line == line && e.pattern.MatchString(msg) {
			e.matched = true
			return true
		}
	}
	return false
}

// parseExpectations reads the want comments of every .go file directly in
// dir (one fixture package's files).
func parseExpectations(dir string) ([]*expectation, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []*expectation
	for _, entry := range entries {
		if entry.IsDir() || filepath.Ext(entry.Name()) != ".go" {
			continue
		}
		path := filepath.Join(dir, entry.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, arg := range wantArgRE.FindAllString(m[1], -1) {
				var pat string
				if arg[0] == '`' {
					pat = arg[1 : len(arg)-1]
				} else if pat, err = strconv.Unquote(arg); err != nil {
					return nil, fmt.Errorf("%s:%d: bad want pattern %s: %v", path, i+1, arg, err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp %s: %v", path, i+1, arg, err)
				}
				out = append(out, &expectation{file: path, line: i + 1, pattern: re})
			}
		}
	}
	return out, nil
}
