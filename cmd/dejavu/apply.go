package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"time"

	"dejavu/internal/cluster"
	"dejavu/internal/intent"
)

// This file implements the declarative config plane's CLI surface:
// `dejavu apply` converges a deployment toward an intent document and
// `dejavu diff` prints the semantic delta between two documents
// without touching anything. See docs/INTENT.md for the operator
// guide and docs/CLI.md for the JSON schemas.

// applyJSON is the `dejavu apply -json` document (docs/CLI.md).
type applyJSON struct {
	File string `json:"file"`
	From string `json:"from,omitempty"`
	// Apply is the converge report for the -f document.
	Apply *intent.Report `json:"apply"`
	// NoopReapply is the immediate re-apply of the same document — the
	// idempotency proof: empty delta, all pipeline stages cached, zero
	// entries, zero program reloads. Absent with -dry-run.
	NoopReapply *intent.Report `json:"noop_reapply,omitempty"`
}

// runApply converges a deployment toward the -f intent document. With
// -from, that document is applied first so the run demonstrates a real
// transition; without it, -f is the initial apply. After a successful
// converge the document is re-applied once and the proved no-op is
// reported — the operator sees idempotency, not just a claim of it.
func runApply(args []string) error {
	fs := flag.NewFlagSet("apply", flag.ExitOnError)
	file := fs.String("f", "", "intent document to converge toward (required)")
	from := fs.String("from", "", "intent document to apply first (the starting state)")
	dryRun := fs.Bool("dry-run", false, "compute the delta and rebuild plan; touch nothing")
	jsonOut := fs.Bool("json", false, "emit the apply report(s) as JSON")
	fs.Parse(args)
	if *file == "" {
		return fmt.Errorf("apply: -f intent.json is required")
	}

	a := intent.NewApplier(nil)
	if *from != "" {
		fromDoc, err := intent.Load(*from)
		if err != nil {
			return err
		}
		if _, err := a.Apply(fromDoc, intent.Options{}); err != nil {
			return fmt.Errorf("apply: starting state %s: %w", *from, err)
		}
	}
	doc, err := intent.Load(*file)
	if err != nil {
		return err
	}
	rep, err := a.Apply(doc, intent.Options{DryRun: *dryRun})
	if err != nil {
		if rep != nil && rep.RolledBack {
			fmt.Printf("rolled back to prior intent\n")
		}
		return err
	}
	out := applyJSON{File: *file, From: *from, Apply: rep}
	if !*dryRun {
		re, err := a.Apply(doc, intent.Options{})
		if err != nil {
			return fmt.Errorf("apply: idempotency re-apply: %w", err)
		}
		out.NoopReapply = re
	}

	if *jsonOut {
		js, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(js))
		return nil
	}
	printApplyReport(rep)
	if out.NoopReapply != nil {
		fmt.Println("\nidempotency proof (immediate re-apply):")
		printApplyReport(out.NoopReapply)
		if !out.NoopReapply.NoOp {
			return fmt.Errorf("apply: re-apply was not a no-op")
		}
	}
	return nil
}

// printApplyReport renders one converge report as text.
func printApplyReport(rep *intent.Report) {
	fmt.Printf("intent %s: %s\n", rep.Hash, rep.Summary())
	for _, act := range rep.Actions {
		if act.Kind == intent.KindNoOp {
			continue
		}
		fmt.Printf("  %s\n", act.Detail)
	}
	for _, g := range rep.Global {
		fmt.Printf("  global: %s changed\n", g)
	}
	if len(rep.Build.Stages) > 0 {
		fmt.Print(rep.Build.Summary())
	}
	if len(rep.FabricPath) > 0 {
		fmt.Printf("fabric path: %v (reprogrammed %v)\n", rep.FabricPath, rep.FabricChanged)
		for _, id := range cluster.SortedKeys(rep.FabricBlackholed) {
			fmt.Printf("  chain %d blackholed: %s\n", id, rep.FabricBlackholed[id])
		}
	}
	if !rep.DryRun {
		fmt.Printf("converged in %v: %d branching entries, %d program reloads\n",
			time.Duration(rep.ConvergenceNS), rep.DeltaEntries, rep.ProgramReloads)
	}
}

// diffJSON is the `dejavu diff -json` document (docs/CLI.md).
type diffJSON struct {
	File    string          `json:"file"`
	From    string          `json:"from,omitempty"`
	Summary string          `json:"summary"`
	Empty   bool            `json:"empty"`
	Actions []intent.Action `json:"actions"`
	Global  []string        `json:"global,omitempty"`
}

// runDiff prints the semantic delta between two intent documents (or
// from "nothing applied" when -from is omitted) without touching any
// switch. Exit status is always 0 for a valid pair — the delta itself
// is the answer.
func runDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	file := fs.String("f", "", "new intent document (required)")
	from := fs.String("from", "", "old intent document; omitted means nothing applied yet")
	jsonOut := fs.Bool("json", false, "emit the delta as JSON")
	fs.Parse(args)
	if *file == "" {
		return fmt.Errorf("diff: -f intent.json is required")
	}
	newDoc, err := intent.Load(*file)
	if err != nil {
		return err
	}
	var oldDoc *intent.Document
	if *from != "" {
		if oldDoc, err = intent.Load(*from); err != nil {
			return err
		}
	}
	delta := intent.Diff(oldDoc, newDoc)
	if *jsonOut {
		out := diffJSON{
			File: *file, From: *from,
			Summary: delta.Summary(), Empty: delta.Empty(),
			Actions: delta.Actions, Global: delta.Global,
		}
		js, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(js))
		return nil
	}
	fmt.Println(delta.Summary())
	for _, act := range delta.Actions {
		if act.Kind == intent.KindNoOp {
			continue
		}
		fmt.Printf("  %s\n", act.Detail)
	}
	for _, g := range delta.Global {
		fmt.Printf("  global: %s changed\n", g)
	}
	return nil
}
