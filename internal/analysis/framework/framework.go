// Package framework is a self-contained, stdlib-only re-implementation of
// the golang.org/x/tools/go/analysis core: an Analyzer runs over one
// type-checked package at a time and reports position-anchored diagnostics.
//
// The repository cannot vendor x/tools (the build environment is offline
// and the module has no external dependencies by policy), so this package
// provides the same shape — Analyzer, Pass, Reportf — on top of go/ast,
// go/types and `go list -export`. Analyzers written against it read like
// ordinary go/analysis analyzers and could be ported verbatim if x/tools
// ever becomes available.
//
// Nothing carries information between packages: there are no facts and no
// shared passes. An analyzer that must know something about a callee in
// another package names it (locksafe's comm.Fifo.Pop); imported packages
// are seen only through their types.
//
// # Suppression directives
//
// Every analyzer carries a Suppress name; a finding on line L is dropped
// when line L or line L-1 holds a comment of the form
//
//	//spardl:<suppress-name> <reason>
//
// with a non-empty reason. A bare directive without a reason does not
// suppress — the discipline is "every exception is explained", mirroring
// //nolint:… linters that require a justification.
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics (e.g. "locksafe").
	Name string
	// Doc is the one-paragraph description `spardl-vet -list` prints.
	Doc string
	// Suppress is the directive suffix that silences a finding:
	// a comment `//spardl:<Suppress> <reason>` on the finding's line or
	// the line above it.
	Suppress string
	// Run executes the pass over one package and reports findings via
	// pass.Reportf.
	Run func(*Pass) error
}

// A Pass provides one analyzer run over one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// suppressed maps file name -> line -> directive names present with a
	// reason on that line. Built once per package by newPass.
	suppressed map[string]map[int][]string

	diags *[]Diagnostic
}

// A Diagnostic is one finding, resolved to a file position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// directiveRE matches `//spardl:<name> <reason>` comments. A directive
// without a reason parses, but newPass does not count it as a suppression.
var directiveRE = regexp.MustCompile(`^//spardl:([a-z0-9-]+)(?:[ \t]+(.*))?$`)

// parseDirective decodes one //spardl:<name> [reason] comment. The text is
// taken as the scanner produced it; a trailing '\r' from a CRLF file is
// stripped first so directives survive Windows line endings.
func parseDirective(text string) (name, reason string, ok bool) {
	m := directiveRE.FindStringSubmatch(strings.TrimRight(text, "\r"))
	if m == nil {
		return "", "", false
	}
	return m[1], strings.TrimSpace(strings.TrimRight(m[2], "\r")), true
}

// Reportf records a finding at pos unless a matching suppression directive
// covers the position's line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.isSuppressed(position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

func (p *Pass) isSuppressed(pos token.Position) bool {
	lines := p.suppressed[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[line] {
			if name == p.Analyzer.Suppress {
				return true
			}
		}
	}
	return false
}

// newPass builds a Pass for one analyzer over a loaded package, including
// the per-file suppression index.
func newPass(a *Analyzer, pkg *Package, diags *[]Diagnostic) *Pass {
	suppressed := make(map[string]map[int][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, reason, ok := parseDirective(c.Text)
				if !ok || !strings.HasSuffix(name, "-ok") || reason == "" {
					continue // not a suppression, or missing the mandatory reason
				}
				pos := pkg.Fset.Position(c.Pos())
				if suppressed[pos.Filename] == nil {
					suppressed[pos.Filename] = make(map[int][]string)
				}
				suppressed[pos.Filename][pos.Line] = append(suppressed[pos.Filename][pos.Line], name)
			}
		}
	}
	return &Pass{
		Analyzer:   a,
		Fset:       pkg.Fset,
		Files:      pkg.Files,
		Pkg:        pkg.Types,
		TypesInfo:  pkg.TypesInfo,
		suppressed: suppressed,
		diags:      diags,
	}
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		di, dj := diags[i], diags[j]
		if di.Pos.Filename != dj.Pos.Filename {
			return di.Pos.Filename < dj.Pos.Filename
		}
		if di.Pos.Line != dj.Pos.Line {
			return di.Pos.Line < dj.Pos.Line
		}
		if di.Pos.Column != dj.Pos.Column {
			return di.Pos.Column < dj.Pos.Column
		}
		return di.Analyzer < dj.Analyzer
	})
}

// Run executes the analyzers over each package in turn. Findings come back
// sorted by position within each package.
func Run(pkgs []*Package, analyzers ...*Analyzer) ([]Diagnostic, error) {
	var all []Diagnostic
	for _, pkg := range pkgs {
		var diags []Diagnostic
		for _, a := range analyzers {
			if err := a.Run(newPass(a, pkg, &diags)); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
			}
		}
		sortDiagnostics(diags)
		all = append(all, diags...)
	}
	return all, nil
}

// Vet is one whole spardl-vet run: load every package the go-list
// patterns match under dir and Run the analyzers over them. It returns the
// packages and every finding.
func Vet(dir string, patterns []string, analyzers ...*Analyzer) ([]*Package, []Diagnostic, error) {
	pkgs, err := Load(dir, patterns)
	if err != nil {
		return nil, nil, err
	}
	diags, err := Run(pkgs, analyzers...)
	return pkgs, diags, err
}
