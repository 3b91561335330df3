// Package analysistest runs a framework.Analyzer over a fixture package
// and checks its diagnostics against `// want "regexp"` comments, the same
// contract as golang.org/x/tools/go/analysis/analysistest:
//
//	m.ch <- v // want `channel send while holding m\.mu`
//
// A line may carry several quoted expectations. Every reported diagnostic
// must match an expectation on its line and every expectation must be
// matched by a diagnostic — unexpected and missing findings both fail the
// test, each with its file:line. Suppression directives are exercised for
// real: a fixture line carrying `//spardl:<name>-ok reason` and no want
// comment passes only if the suppression actually absorbs the finding.
//
// A fixture directory is one package, and an analyzer sees one package at
// a time, so a fixture holds every shape a rule judges. It may import
// spardl packages, whose named types and functions the rules know.
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

// Run loads the fixture package at dir (e.g. "testdata/locksafe"), runs
// the analyzer over it, and reports mismatches between diagnostics and
// want comments.
func Run(t *testing.T, dir string, a *framework.Analyzer) {
	t.Helper()
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := framework.LoadFixture(abs)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	expects, err := parseExpectations(pkg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	diags, err := framework.Run([]*framework.Package{pkg}, a)
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
