package main

import (
	"flag"
	"fmt"
	"time"

	"dejavu/internal/cluster"
	"dejavu/internal/intent"
	"dejavu/internal/route"
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
	Apply *reportJSON `json:"apply"`
	// NoopReapply is the immediate re-apply of the same document — the
	// idempotency proof: empty delta, all pipeline stages cached, zero
	// entries, zero program reloads. Absent with -dry-run.
	NoopReapply *reportJSON `json:"noop_reapply,omitempty"`
}

// reportJSON is one converge report with its single-switch write-set
// listed as `plan -json` lists a delta.
type reportJSON struct {
	*intent.Report
	ChangedPrograms []string `json:"changed_programs,omitempty"`
	Delta           []opJSON `json:"delta,omitempty"`
}

// opJSON is one branching-table write.
type opJSON struct {
	Op    string `json:"op"`
	Entry string `json:"entry"`
}

func newReportJSON(rep *intent.Report) *reportJSON {
	out := &reportJSON{Report: rep}
	for _, pl := range rep.ChangedPrograms {
		out.ChangedPrograms = append(out.ChangedPrograms, pl.String())
	}
	for _, op := range rep.Delta {
		out.Delta = append(out.Delta, opJSON{op.Op.String(), op.Entry.String()})
	}
	return out
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
	dryRun := fs.Bool("dry-run", false, "run the converge up to its first write and report what it would write")
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
	var re *intent.Report
	if !*dryRun {
		if re, err = a.Apply(doc, intent.Options{}); err != nil {
			return fmt.Errorf("apply: idempotency re-apply: %w", err)
		}
	}

	if *jsonOut {
		out := applyJSON{File: *file, From: *from, Apply: newReportJSON(rep)}
		if re != nil {
			out.NoopReapply = newReportJSON(re)
		}
		return printJSON(out)
	}
	printApplyReport(rep)
	if re != nil {
		fmt.Println("\nidempotency proof (immediate re-apply):")
		printApplyReport(re)
		if !re.NoOp {
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
		if rep.DryRun {
			printWrites(rep)
		}
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

// printWrites lists the write-set a dry run found: the pipelet programs
// the apply would reload and its branching-table delta.
func printWrites(rep *intent.Report) {
	if len(rep.ChangedPrograms) == 0 {
		fmt.Println("pipelet programs: all cached, none reloaded")
	} else {
		fmt.Printf("pipelet programs reloaded: %d\n", len(rep.ChangedPrograms))
		for _, pl := range rep.ChangedPrograms {
			fmt.Printf("  %s\n", pl)
		}
	}
	ops := make(map[route.OpKind]int)
	for _, op := range rep.Delta {
		ops[op.Op]++
	}
	fmt.Printf("branching delta: %d ops (%d add, %d del, %d mod)\n",
		len(rep.Delta), ops[route.OpAdd], ops[route.OpDel], ops[route.OpMod])
	for _, op := range rep.Delta {
		fmt.Printf("  %s\n", op)
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
		return printJSON(out)
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
