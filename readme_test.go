package spardl_test

import (
	"os"
	"os/exec"
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
