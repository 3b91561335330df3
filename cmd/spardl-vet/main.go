// Command spardl-vet runs the repository's custom static-analysis suite —
// locksafe and netdeadline — over the given package patterns and exits
// non-zero on any finding. CI runs it as a hard gate; locally:
//
//	go run ./cmd/spardl-vet ./...
//
// Flags:
//
//	-list            print the analyzers and their docs, then exit
//	-only name[,...] run only the named analyzers
//
// Every run analyzes every matched package. Findings print as
// file:line:col: [analyzer] message on stdout, a one-line
// `packages=N findings=M` summary on stderr. A finding is
// suppressed by a `//spardl:<analyzer-suppress> <reason>` comment on its
// line or the line above — see README.md "Correctness tooling".
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"spardl/internal/analysis"
	"spardl/internal/analysis/framework"
)

func main() {
	listFlag := flag.Bool("list", false, "print the analyzers and their docs, then exit")
	onlyFlag := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	flag.Parse()

	suite := analysis.All()
	if *listFlag {
		for _, a := range suite {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	if *onlyFlag != "" {
		want := make(map[string]bool)
		for _, name := range strings.Split(*onlyFlag, ",") {
			if name = strings.TrimSpace(name); name != "" {
				want[name] = true
			}
		}
		var names []string
		suite = slices.DeleteFunc(suite, func(a *framework.Analyzer) bool {
			names = append(names, a.Name)
			return !want[a.Name]
		})
		if len(suite) == 0 || len(suite) != len(want) {
			fmt.Fprintf(os.Stderr, "spardl-vet: -only %q names no analyzer or an unknown one; available: %s\n",
				*onlyFlag, strings.Join(names, ", "))
			os.Exit(2)
		}
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, diags, err := framework.Vet(".", patterns, suite...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "spardl-vet: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	fmt.Fprintf(os.Stderr, "spardl-vet: packages=%d findings=%d\n", len(pkgs), len(diags))
	if len(diags) > 0 {
		os.Exit(1)
	}
}
