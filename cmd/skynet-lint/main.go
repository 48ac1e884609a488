// Command skynet-lint runs the repository's static-analysis checkers
// (internal/analysis) over the module and reports findings as
// `file:line: [checker] message` lines, or as a JSON array with -json.
// It exits 1 when there are findings and 2 on a load/usage error.
//
// Usage:
//
//	skynet-lint [-json] [-c checker1,checker2] [packages...]
//
// With no package patterns it lints ./... . Findings are suppressed by a
// `//skynet:nolint <checkers> -- <reason>` comment on (or directly above)
// the offending line; see `skynet-lint -list` for the checker inventory.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"skynet/internal/analysis"
)

func main() {
	var (
		jsonOut  = flag.Bool("json", false, "emit findings as a JSON array")
		checkers = flag.String("c", "", "comma-separated checkers to run (default: all)")
		list     = flag.Bool("list", false, "list available checkers and exit")
	)
	flag.Parse()

	if *list {
		for _, c := range analysis.All {
			fmt.Printf("%-12s %s\n", c.Name, c.Doc)
		}
		return
	}

	selected := analysis.All
	if *checkers != "" {
		selected = nil
		for _, name := range strings.Split(*checkers, ",") {
			c := analysis.ByName(strings.TrimSpace(name))
			if c == nil {
				fmt.Fprintf(os.Stderr, "skynet-lint: unknown checker %q (see -list)\n", name)
				os.Exit(2)
			}
			selected = append(selected, c)
		}
	}

	patterns := flag.Args()
	loader := analysis.NewLoader("")
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "skynet-lint: %v\n", err)
		os.Exit(2)
	}

	diags := analysis.Run(pkgs, selected)
	wd, _ := os.Getwd()
	write := analysis.WriteText
	if *jsonOut {
		write = analysis.WriteJSON
	}
	if err := write(os.Stdout, wd, diags); err != nil {
		fmt.Fprintf(os.Stderr, "skynet-lint: %v\n", err)
		os.Exit(2)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "skynet-lint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}
