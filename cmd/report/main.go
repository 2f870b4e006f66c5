// Command report regenerates EXPERIMENTS.md: it runs the full evaluation
// (lower-bound constructions, the nine Fig. 5 panels, the architecture
// comparison) at the committed default scale and writes the
// paper-vs-measured document to stdout. It takes no flags: the
// document's prose quotes numbers measured at that scale.
//
// Usage:
//
//	report > EXPERIMENTS.md
package main

import (
	"flag"
	"fmt"
	"os"

	"smbm/internal/experiments"
	"smbm/internal/report"
)

func main() {
	flag.Parse()
	if err := report.Generate(os.Stdout, experiments.Options{}); err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}
