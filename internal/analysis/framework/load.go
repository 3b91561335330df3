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
// dependents); Load keeps that order, so findings print in it.

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

// LoadFixture type-checks an analysistest fixture directory: its .go files
// form one package, "spardl/fixture/<dir>". Imports (standard library or
// spardl packages) are resolved through `go list -export`, as in Load.
func LoadFixture(dir string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			names = append(names, e.Name())
		}
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no .go files in %s", dir)
	}
	sort.Strings(names)
	fset := token.NewFileSet()
	files, err := parseFiles(fset, dir, names)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var patterns []string
	for _, f := range files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil || path == "unsafe" || path == "C" || seen[path] {
				continue
			}
			seen[path] = true
			patterns = append(patterns, path)
		}
	}
	exports := make(map[string]string)
	if len(patterns) > 0 {
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
	path := "spardl/fixture/" + filepath.Base(dir)
	tpkg, info, err := check(fset, path, files, newExportImporter(fset, exports))
	if err != nil {
		return nil, err
	}
	return &Package{Path: path, Name: tpkg.Name(), Dir: dir, Fset: fset, Files: files, Types: tpkg, TypesInfo: info}, nil
}
