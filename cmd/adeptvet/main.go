// Command adeptvet machine-enforces the planner's determinism, hot-path,
// and observability invariants with a project-specific static-analysis
// suite (see internal/analysis). From the module root:
//
//	adeptvet ./...
//
// runs every analyzer over the matched packages, audits the
// //adeptvet:allow directives (a stale or malformed one is a finding),
// prints each unsuppressed finding and exits nonzero if there is one.
// Intentional exceptions are annotated in source as
// //adeptvet:allow <analyzer> <reason>; `adeptvet -allows ./...` lists
// every such directive instead of the findings.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"adept/internal/analysis"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("adeptvet: ")

	listAllows := flag.Bool("allows", false, "list every //adeptvet:allow directive instead of findings")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: adeptvet [-allows] ./...\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(os.Stderr, "\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}

	wd, err := os.Getwd()
	if err != nil {
		log.Fatal(err)
	}
	units, err := analysis.Load(wd, flag.Args())
	if err != nil {
		log.Fatal(err)
	}
	failed := false
	for _, u := range units {
		findings, allows, err := analysis.RunUnit(u)
		if err != nil {
			log.Fatalf("%s: %v", u.ImportPath, err)
		}
		if *listAllows {
			for _, a := range allows {
				fmt.Printf("%s: allow %s: %s\n", a.Pos, a.Analyzer, a.Reason)
			}
			continue
		}
		for _, f := range findings {
			if !f.Suppressed {
				fmt.Println(f)
				failed = true
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}
