// Command dvvet runs Dejavu's custom analyzer suite (hotpath,
// snapshot, poolsafe, detrand — see internal/analysis and
// docs/STATIC_ANALYSIS.md) over the module in the current directory:
//
//	dvvet [-json] [packages]
//
// It loads, typechecks and analyzes the packages (default ./...) in one
// process. Exit status 2 on findings, 1 on operational errors, 0 when
// clean.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"dejavu/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: dvvet [-json] [packages]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	os.Exit(run(".", flag.Args(), *jsonOut, os.Stdout, os.Stderr))
}

// run analyzes the packages matching patterns in the module rooted at
// dir, printing findings to stdout and errors and the summary to
// stderr, and returns the exit status.
func run(dir string, patterns []string, jsonOut bool, stdout, stderr io.Writer) int {
	prog, err := analysis.Load(dir, patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "dvvet:", err)
		return 1
	}
	res, err := analysis.RunPackages(prog, analysis.Analyzers())
	if err != nil {
		fmt.Fprintln(stderr, "dvvet:", err)
		return 1
	}
	if jsonOut {
		diags := append([]analysis.Diagnostic{}, res.Diagnostics...) // a clean run is [], not null
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "dvvet:", err)
			return 1
		}
	} else {
		for _, d := range res.Diagnostics {
			fmt.Fprintln(stdout, d)
		}
		fmt.Fprintf(stderr, "dvvet: %d package(s), %d finding(s), %d waived\n",
			len(prog.Packages), len(res.Diagnostics), res.Waived)
	}
	if len(res.Diagnostics) > 0 {
		return 2
	}
	return 0
}
