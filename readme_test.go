package spardl_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestPackageMapMatchesGoList holds README's "Package map" to the module:
// every package `go list ./...` reports is named in the first column of a
// row, and every name there is a package, or, ending in "/...", covers at
// least one; no package is covered twice. `spardl` is the root package.
func TestPackageMapMatchesGoList(t *testing.T) {
	out, err := exec.Command("go", "list", "./...").Output()
	if err != nil {
		t.Fatalf("go list ./...: %v", err)
	}
	pkgs := strings.Fields(string(out))
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(readme), "\n## Package map\n")
	if !ok {
		t.Fatal(`README.md has no "## Package map" section`)
	}
	section, _, _ = strings.Cut(section, "\n## ")
	named := map[string]int{} // module path or pattern → packages it covers
	backticked := regexp.MustCompile("`([^`]+)`")
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) < 3 || !strings.HasPrefix(line, "| `") {
			continue
		}
		for _, m := range backticked.FindAllStringSubmatch(cells[1], -1) {
			name := m[1]
			if name != "spardl" {
				name = "spardl/" + name
			}
			if _, dup := named[name]; dup {
				t.Errorf("Package map names %s twice", m[1])
			}
			named[name] = 0
		}
	}
	for _, pkg := range pkgs {
		rows := 0
		for name := range named {
			tree, isTree := strings.CutSuffix(name, "/...")
			if pkg == name || isTree && (pkg == tree || strings.HasPrefix(pkg, tree+"/")) {
				named[name]++
				rows++
			}
		}
		switch {
		case rows == 0:
			t.Errorf("go list reports %s, which README's Package map has no row for", pkg)
		case rows > 1:
			t.Errorf("README's Package map covers %s %d times", pkg, rows)
		}
	}
	for name, n := range named {
		if n == 0 {
			t.Errorf("README's Package map names %s, which go list does not report", name)
		}
	}
}

// docFiles is README.md and every *.md file under docs/: the documents the
// drift tests hold to the tree.
func docFiles(t *testing.T) []string {
	files := []string{"README.md"}
	err := filepath.WalkDir("docs", func(path string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() && strings.HasSuffix(path, ".md") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestReadmeIdentsResolve holds README's and docs/'s inline code to the
// module: a backticked `pkg.Ident` whose pkg is the name of a module
// package (other than main) must name an exported top-level declaration —
// type, func, var or const — in that package's non-test files, whatever
// their build tags. Fenced code blocks are not read; in `pkg.Type.Method`
// only the Type is checked.
func TestReadmeIdentsResolve(t *testing.T) {
	out, err := exec.Command("go", "list", "-f", "{{.Name}} {{.Dir}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list ./...: %v", err)
	}
	exported := map[string]map[string]bool{} // package name → its exported declarations
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		name, dir, _ := strings.Cut(line, " ")
		if name == "main" {
			continue
		}
		if exported[name] == nil {
			exported[name] = map[string]bool{}
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		decls := exported[name]
		add := func(id *ast.Ident) {
			if id.IsExported() {
				decls[id.Name] = true
			}
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil {
						add(d.Name)
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						switch s := spec.(type) {
						case *ast.TypeSpec:
							add(s.Name)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								add(id)
							}
						}
					}
				}
			}
		}
	}
	span := regexp.MustCompile("`[^`]+`")
	ref := regexp.MustCompile(`\b(\w+)\.([A-Z]\w*)`)
	for _, path := range docFiles(t) {
		doc, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fenced, refs := false, 0
		for i, line := range strings.Split(string(doc), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, code := range span.FindAllString(line, -1) {
				for _, m := range ref.FindAllStringSubmatch(code, -1) {
					decls, isPkg := exported[m[1]]
					if !isPkg {
						continue
					}
					refs++
					if !decls[m[2]] {
						t.Errorf("%s:%d: %s names no exported declaration of package %s", path, i+1, m[0], m[1])
					}
				}
			}
		}
		if path == "README.md" && refs == 0 {
			t.Error("README.md has no backticked pkg.Ident at all: the reference pattern is broken")
		}
	}
}

// TestCitedFilesExist holds every *.md or *.json path that README.md, a
// note under docs/, the verify skill, CI's workflow, the Makefile or a
// comment in a non-test Go file cites to the tree: it must resolve from the
// repo root or from the citing file's directory. A section cite —
// `<file>.md "<Heading>"` or `<file>.md's "<Heading>"`, README standing
// for README.md — must name a heading of that file. bench/ is skipped: the
// end-to-end benchmark changes only together with its own records.
func TestCitedFilesExist(t *testing.T) {
	type text struct {
		path string
		line int
		s    string
	}
	var texts []text
	for _, path := range append(docFiles(t), ".claude/skills/verify/SKILL.md", ".github/workflows/ci.yml", "Makefile") {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		texts = append(texts, text{path, 1, string(src)})
	}
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case e.IsDir() && path != "." && (path == "bench" || strings.HasPrefix(path, ".")):
			return filepath.SkipDir
		case e.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, g := range f.Comments {
			for _, c := range g.List {
				texts = append(texts, text{path, fset.Position(c.Pos()).Line, c.Text})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cite := regexp.MustCompile(`[\w./-]*\w\.(?:md|json)\b`)
	section := regexp.MustCompile(`\b(README|[\w./-]*\w\.md)(?:'s)? "([^"]+)"`)
	cites, sections := 0, 0
	for _, x := range texts {
		for i, line := range strings.Split(x.s, "\n") {
			for _, p := range cite.FindAllString(line, -1) {
				cites++
				if resolveCite(x.path, p) == "" {
					t.Errorf("%s:%d cites %s, which does not exist", x.path, x.line+i, p)
				}
			}
			for _, m := range section.FindAllStringSubmatch(line, -1) {
				file := m[1]
				if file == "README" {
					file = "README.md"
				}
				found := resolveCite(x.path, file)
				if found == "" {
					continue // reported above
				}
				sections++
				if !hasHeading(t, found, m[2]) {
					t.Errorf("%s:%d cites %s %q, which has no such heading", x.path, x.line+i, file, m[2])
				}
			}
		}
	}
	if cites == 0 || sections == 0 {
		t.Errorf("%d file cites, %d section cites found: a pattern is broken", cites, sections)
	}
}

// resolveCite is the path a cite in the file at from names, tried from the
// repo root and then from from's directory, or "" if neither exists.
func resolveCite(from, cite string) string {
	for _, p := range []string{cite, filepath.Join(filepath.Dir(from), cite)} {
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return ""
}

// hasHeading reports whether the Markdown file at path has a heading,
// of any level, whose text is exactly heading.
func hasHeading(t *testing.T, path, heading string) bool {
	src, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(src), "\n") {
		if strings.HasPrefix(line, "#") && strings.TrimSpace(strings.TrimLeft(line, "#")) == heading {
			return true
		}
	}
	return false
}
