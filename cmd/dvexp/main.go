// Command dvexp regenerates the paper's tables and figures.
//
// Usage:
//
//	dvexp            # run every experiment
//	dvexp -exp fig8a # run one experiment
//	dvexp -list      # list experiment IDs
package main

import (
	"flag"
	"fmt"
	"os"

	"dejavu/internal/experiments"
)

func main() {
	exp := flag.String("exp", "all", "experiment ID to run (see -list)")
	list := flag.Bool("list", false, "list experiment IDs and exit")
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	var tables []experiments.Table
	var err error
	if *exp == "all" {
		tables, err = experiments.All()
	} else {
		var t experiments.Table
		t, err = experiments.ByID(*exp)
		tables = append(tables, t)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvexp:", err)
		os.Exit(1)
	}
	for _, t := range tables {
		fmt.Println(t.String())
	}
}
