package framework

// Package loading without golang.org/x/tools/go/packages: `go list -deps
// -export` compiles every dependency and reports its export-data file, the
// target packages are parsed from source, and go/types checks them with an
// importer that resolves imports straight from the export files. This is
// the same split the go vet driver uses (source for the package under
// analysis, export data for everything below it), so analyzers get full,
// compiler-consistent type information with no third-party loader.
//
// `go list -deps` emits packages in dependency order (dependencies before
// dependents); Load preserves that order so Run computes a
// package's facts before analyzing any of its importers.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	Path      string
	Name      string
	Dir       string
	Fset      *token.FileSet
	Files     []*ast.File
	Types     *types.Package
	TypesInfo *types.Info
}

// listedPkg mirrors the `go list -json` fields the loader consumes.
type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	GoFiles    []string
	DepOnly    bool
	Standard   bool
}

// goList runs `go list -deps -export -json` in dir over the patterns and
// returns the decoded package stream in dependency order.
func goList(dir string, patterns []string) ([]listedPkg, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Name,Dir,Export,GoFiles,DepOnly,Standard",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	var pkgs []listedPkg
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", patterns, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter resolves imports from compiled export data. "unsafe" is
// special-cased the way every gc-based driver must: it has no export file.
type exportImporter struct {
	gc      types.Importer
	exports map[string]string
}

func newExportImporter(fset *token.FileSet, exports map[string]string) *exportImporter {
	imp := &exportImporter{exports: exports}
	imp.gc = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := imp.exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return imp
}

func (i *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return i.gc.Import(path)
}

func newInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
}

// parseFiles parses the named files (resolved against dir) with comments.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// check type-checks one package from its parsed files.
func check(fset *token.FileSet, path string, files []*ast.File, imp types.Importer) (*types.Package, *types.Info, error) {
	info := newInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return tpkg, info, nil
}

// Load expands the go-list patterns relative to dir (the module root or
// any directory inside it) and returns every matched package type-checked,
// in dependency order (imports before importers). Test files are not
// loaded — the invariants spardl-vet enforces are about shipped
// collective/merge/codec code.
func Load(dir string, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	exports := make(map[string]string, len(listed))
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	imp := newExportImporter(fset, exports)
	var out []*Package
	for _, p := range listed {
		if p.DepOnly || p.Standard || len(p.GoFiles) == 0 {
			continue
		}
		files, err := parseFiles(fset, p.Dir, p.GoFiles)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		tpkg, info, err := check(fset, p.ImportPath, files, imp)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		out = append(out, &Package{
			Path:      p.ImportPath,
			Name:      tpkg.Name(),
			Dir:       p.Dir,
			Fset:      fset,
			Files:     files,
			Types:     tpkg,
			TypesInfo: info,
		})
	}
	return out, nil
}

// fixtureImporter resolves "spardl/fixture/…" imports from fixture
// packages already checked in memory and everything else from export data.
type fixtureImporter struct {
	base types.Importer
	mem  map[string]*types.Package
}

func (i *fixtureImporter) Import(path string) (*types.Package, error) {
	if p, ok := i.mem[path]; ok {
		return p, nil
	}
	return i.base.Import(path)
}

// LoadFixtureTree type-checks an analysistest fixture directory. The
// directory's own .go files form one package, and each immediate
// subdirectory containing .go files forms another, importable by its
// siblings as "spardl/fixture/<subdir>" — which is how cross-package fact
// fixtures are written. Packages are returned in dependency order.
// Regular imports (standard library or spardl packages) are resolved
// through `go list -export`, as in Load.
func LoadFixtureTree(dir string) ([]*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	type rawPkg struct {
		dir     string
		pkgPath string
		names   []string
		files   []*ast.File
		imports map[string]bool
	}
	var raws []*rawPkg
	root := &rawPkg{dir: dir, pkgPath: "spardl/fixture/" + filepath.Base(dir)}
	for _, e := range entries {
		switch {
		case e.IsDir():
			sub := &rawPkg{dir: filepath.Join(dir, e.Name()), pkgPath: "spardl/fixture/" + e.Name()}
			subEntries, err := os.ReadDir(sub.dir)
			if err != nil {
				return nil, err
			}
			for _, se := range subEntries {
				if !se.IsDir() && filepath.Ext(se.Name()) == ".go" {
					sub.names = append(sub.names, se.Name())
				}
			}
			if len(sub.names) > 0 {
				raws = append(raws, sub)
			}
		case filepath.Ext(e.Name()) == ".go":
			root.names = append(root.names, e.Name())
		}
	}
	if len(root.names) > 0 {
		raws = append(raws, root)
	}
	if len(raws) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}

	fset := token.NewFileSet()
	external := make(map[string]bool)
	for _, r := range raws {
		sort.Strings(r.names)
		r.files, err = parseFiles(fset, r.dir, r.names)
		if err != nil {
			return nil, err
		}
		r.imports = make(map[string]bool)
		for _, f := range r.files {
			for _, spec := range f.Imports {
				path, err := strconv.Unquote(spec.Path.Value)
				if err != nil || path == "unsafe" || path == "C" {
					continue
				}
				r.imports[path] = true
				if !strings.HasPrefix(path, "spardl/fixture/") {
					external[path] = true
				}
			}
		}
	}

	exports := make(map[string]string)
	if len(external) > 0 {
		patterns := make([]string, 0, len(external))
		for path := range external {
			patterns = append(patterns, path)
		}
		sort.Strings(patterns)
		listed, err := goList(dir, patterns)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}

	imp := &fixtureImporter{
		base: newExportImporter(fset, exports),
		mem:  make(map[string]*types.Package),
	}

	// Order fixture packages so intra-fixture imports are checked first:
	// repeatedly pick the lexically-first package whose fixture imports
	// are all satisfied (fixture trees are tiny, so O(n²) is fine).
	sort.Slice(raws, func(i, j int) bool { return raws[i].pkgPath < raws[j].pkgPath })
	var ordered []*rawPkg
	done := make(map[string]bool)
	for len(ordered) < len(raws) {
		progressed := false
		for _, r := range raws {
			if done[r.pkgPath] {
				continue
			}
			ready := true
			for path := range r.imports {
				if strings.HasPrefix(path, "spardl/fixture/") && !done[path] && path != r.pkgPath {
					ready = false
				}
			}
			if ready {
				ordered = append(ordered, r)
				done[r.pkgPath] = true
				progressed = true
			}
		}
		if !progressed {
			return nil, fmt.Errorf("fixture import cycle in %s", dir)
		}
	}

	var out []*Package
	for _, r := range ordered {
		tpkg, info, err := check(fset, r.pkgPath, r.files, imp)
		if err != nil {
			return nil, err
		}
		imp.mem[r.pkgPath] = tpkg
		out = append(out, &Package{
			Path:      r.pkgPath,
			Name:      tpkg.Name(),
			Dir:       r.dir,
			Fset:      fset,
			Files:     r.files,
			Types:     tpkg,
			TypesInfo: info,
		})
	}
	return out, nil
}
