package framework

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"testing"
)

// loadSrc type-checks one import-free source string as a package.
func loadSrc(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	info := newInfo()
	tpkg, err := (&types.Config{}).Check("fix", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	return &Package{
		Path: "fix", Name: "fix", Fset: fset,
		Files: []*ast.File{f}, Types: tpkg, TypesInfo: info,
	}
}

// callReporter reports one diagnostic at every call to the function bad().
func callReporter(name string) *Analyzer {
	a := &Analyzer{
		Name:     name,
		Doc:      "test analyzer: reports every call to bad()",
		Suppress: name + "-ok",
	}
	a.Run = func(pass *Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "bad" {
						pass.Reportf(call.Pos(), "call to bad")
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}

func TestParseDirective(t *testing.T) {
	tests := []struct {
		text         string
		name, reason string
		ok           bool
	}{
		{"//spardl:locksafe-ok", "locksafe-ok", "", true}, // parses; newPass drops it for the missing reason
		{"//spardl:locksafe-ok handed off to the peer", "locksafe-ok", "handed off to the peer", true},
		{"//spardl:locksafe-ok handed off\r", "locksafe-ok", "handed off", true}, // CRLF checkout
		{"//spardl:net-deadline2-ok x", "net-deadline2-ok", "x", true},
		{"// spardl:locksafe-ok x", "", "", false}, // space before the directive
		{"//nolint:all", "", "", false},
	}
	for _, tt := range tests {
		name, reason, ok := parseDirective(tt.text)
		if name != tt.name || reason != tt.reason || ok != tt.ok {
			t.Errorf("parseDirective(%q) = %q, %q, %v; want %q, %q, %v",
				tt.text, name, reason, ok, tt.name, tt.reason, tt.ok)
		}
	}
}

// The directive on line L-1 suppresses even when that comment is
// syntactically attached to a different AST node (here the trailing
// comment of the assignment above the finding).
func TestSuppressionOnPrecedingLineOtherNode(t *testing.T) {
	pkg := loadSrc(t, `package fix

func bad() {}

func f() {
	x := 1 //spardl:calltest-ok absorbed by the line above
	bad()
	_ = x
}
`)
	diags, err := Run([]*Package{pkg}, callReporter("calltest"))
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("want finding suppressed by preceding-line directive, got %v", diags)
	}
}

// A directive two lines up is out of range: only L and L-1 count.
func TestSuppressionTwoLinesUpDoesNotApply(t *testing.T) {
	pkg := loadSrc(t, `package fix

func bad() {}

func f() {
	//spardl:calltest-ok too far away
	x := 1
	bad()
	_ = x
}
`)
	diags, err := Run([]*Package{pkg}, callReporter("calltest"))
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Errorf("want 1 finding (directive out of range), got %v", diags)
	}
}

// A bare directive with no reason does not suppress.
func TestSuppressionRequiresReason(t *testing.T) {
	pkg := loadSrc(t, `package fix

func bad() {}

func f() {
	bad() //spardl:calltest-ok
}
`)
	diags, err := Run([]*Package{pkg}, callReporter("calltest"))
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Errorf("want 1 finding (reason is mandatory), got %v", diags)
	}
}

// One finding line can carry directives for several analyzers: one on the
// line itself, one on the line above. Both apply; an unrelated third
// analyzer still reports.
func TestMultipleDirectivesOneFindingLine(t *testing.T) {
	pkg := loadSrc(t, `package fix

func bad() {}

func f() {
	//spardl:calltest-ok first analyzer's exception
	bad() //spardl:othertest-ok second analyzer's exception
}
`)
	diags, err := Run([]*Package{pkg}, callReporter("calltest"), callReporter("othertest"), callReporter("third"))
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || diags[0].Analyzer != "third" {
		t.Errorf("want exactly the undirected analyzer's finding, got %v", diags)
	}
}

// Directives survive CRLF line endings: the scanner keeps the '\r' in the
// comment text and parseDirective strips it.
func TestSuppressionSurvivesCRLF(t *testing.T) {
	src := "package fix\r\n" +
		"\r\n" +
		"func bad() {}\r\n" +
		"\r\n" +
		"func f() {\r\n" +
		"\tbad() //spardl:calltest-ok windows checkout keeps CRLF\r\n" +
		"}\r\n"
	pkg := loadSrc(t, src)
	diags, err := Run([]*Package{pkg}, callReporter("calltest"))
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 0 {
		t.Errorf("want CRLF directive to suppress, got %v", diags)
	}
}
