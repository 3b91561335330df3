// Package framework is a self-contained, stdlib-only re-implementation of
// the golang.org/x/tools/go/analysis core: an Analyzer runs over one
// type-checked package at a time and reports position-anchored diagnostics.
//
// The repository cannot vendor x/tools (the build environment is offline
// and the module has no external dependencies by policy), so this package
// provides the same shape — Analyzer, Pass, Reportf, Facts, Requires —
// on top of go/ast, go/types and `go list -export`. Analyzers written
// against it read like ordinary go/analysis analyzers and could be ported
// verbatim if x/tools ever becomes available.
//
// # Interprocedural analysis
//
// Two mechanisms carry information beyond a single package:
//
//   - Facts: an analyzer attaches data to package-level objects
//     (Pass.ExportObjectFact) and reads them back on objects that
//     importing packages reference (Pass.ImportObjectFact). Run analyzes
//     packages in dependency order, so a callee's facts are always
//     computed before any caller is analyzed.
//   - Requires/ResultOf: an analyzer lists passes it depends on
//     (Analyzer.Requires); their Run result for the current package is
//     available through Pass.ResultOf, the way go/analysis shares the
//     inspect pass. spardl-vet shares one call-graph pass this way.
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
	// Name identifies the analyzer in diagnostics (e.g. "nodeterm").
	Name string
	// Doc is the one-paragraph description `spardl-vet -list` prints.
	Doc string
	// Suppress is the directive suffix that silences a finding:
	// a comment `//spardl:<Suppress> <reason>` on the finding's line or
	// the line above it.
	Suppress string
	// Requires lists analyzers that must run before this one on each
	// package; their results are available through Pass.ResultOf. The
	// Run completes the transitive closure automatically.
	Requires []*Analyzer
	// Run executes the pass, reports findings via pass.Reportf, and
	// returns the result value exposed to dependent analyzers.
	Run func(*Pass) (any, error)
}

// A Pass provides one analyzer run over one package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// ResultOf holds the Run results of this package's earlier passes;
	// entries for Analyzer.Requires are guaranteed present.
	ResultOf map[*Analyzer]any

	facts factStore

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

// directiveRE matches `//spardl:<name> <reason>` comments. The reason is
// mandatory for suppression directives; marker directives like
// //spardl:hotpath take no reason.
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

// ExportObjectFact attaches fact to obj, a package-level object of the
// package under analysis. Facts on foreign or non-package-level objects
// are silently dropped — matching the "no fact" import result.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	path, ok := ObjectPath(obj)
	if !ok {
		return
	}
	if obj.Pkg().Path() != p.Pkg.Path() {
		panic(fmt.Sprintf("%s: ExportObjectFact(%s): object belongs to %s, not the package under analysis %s",
			p.Analyzer.Name, obj.Name(), obj.Pkg().Path(), p.Pkg.Path()))
	}
	p.facts.export(obj.Pkg().Path(), path, fact)
}

// ImportObjectFact copies the fact of fact's concrete type attached to obj
// into fact and reports whether one exists. obj may belong to any package
// already analyzed this run.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	path, ok := ObjectPath(obj)
	if !ok {
		return false
	}
	return p.facts.lookup(obj.Pkg().Path(), path, fact)
}

// HasDirective reports whether the comment group carries the given
// //spardl:<name> directive (e.g. "hotpath" on a function's doc comment).
func HasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if got, _, ok := parseDirective(c.Text); ok && got == name {
			return true
		}
	}
	return false
}

// newPass builds a Pass for one analyzer over a loaded package, including
// the per-file suppression index.
func newPass(a *Analyzer, pkg *Package, diags *[]Diagnostic, facts factStore, results map[*Analyzer]any) *Pass {
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
		ResultOf:   results,
		facts:      facts,
		suppressed: suppressed,
		diags:      diags,
	}
}

// requiresClosure expands Requires edges depth-first; the post-order
// guarantees dependencies run before dependents. Cycles are an error.
func requiresClosure(roots []*Analyzer) ([]*Analyzer, error) {
	var order []*Analyzer
	state := make(map[*Analyzer]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(a *Analyzer) error
	visit = func(a *Analyzer) error {
		switch state[a] {
		case 1:
			return fmt.Errorf("analyzer dependency cycle through %s", a.Name)
		case 2:
			return nil
		}
		state[a] = 1
		for _, dep := range a.Requires {
			if err := visit(dep); err != nil {
				return err
			}
		}
		state[a] = 2
		order = append(order, a)
		return nil
	}
	for _, a := range roots {
		if err := visit(a); err != nil {
			return nil, err
		}
	}
	return order, nil
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

// Run executes the analyzers, plus the transitive closure of their
// Requires, over the packages — given in dependency order, as Load and
// LoadFixtureTree return them — threading one fact store through, so a
// callee's facts are computed before any caller is analyzed. Findings come
// back sorted by position within each package.
func Run(pkgs []*Package, analyzers ...*Analyzer) ([]Diagnostic, error) {
	order, err := requiresClosure(analyzers)
	if err != nil {
		return nil, err
	}
	facts := make(factStore)
	var all []Diagnostic
	for _, pkg := range pkgs {
		var diags []Diagnostic
		results := make(map[*Analyzer]any, len(order))
		for _, a := range order {
			res, err := a.Run(newPass(a, pkg, &diags, facts, results))
			if err != nil {
				return nil, fmt.Errorf("%s: %s: %w", pkg.Path, a.Name, err)
			}
			results[a] = res
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
