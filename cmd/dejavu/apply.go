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

// reportJSON is one converge report with its write-set listed as
// `plan -json` lists a delta: on a fabric the round's fabric_* keys and
// one writes entry per switch, on one switch that switch's inline.
type reportJSON struct {
	*intent.Report
	*cluster.ReconcileReport
	Writes []writesJSON `json:"writes,omitempty"`
	writesJSON
}

// writesJSON is one switch's write-set; Switch is left out on one switch.
type writesJSON struct {
	Switch          *int     `json:"switch,omitempty"`
	ChangedPrograms []string `json:"changed_programs,omitempty"`
	Delta           []opJSON `json:"delta,omitempty"`
}

// opJSON is one branching-table write.
type opJSON struct {
	Op    string `json:"op"`
	Entry string `json:"entry"`
}

// newReportJSON renders rep, or nil for none.
func newReportJSON(rep *intent.Report) *reportJSON {
	if rep == nil {
		return nil
	}
	out := &reportJSON{Report: rep, ReconcileReport: rep.Fabric}
	for _, w := range rep.Writes {
		var sw writesJSON
		for _, pl := range w.Programs {
			sw.ChangedPrograms = append(sw.ChangedPrograms, pl.String())
		}
		for _, op := range w.Delta {
			sw.Delta = append(sw.Delta, opJSON{op.Op.String(), op.Entry.String()})
		}
		if rep.Fabric == nil { // one switch: its write-set inline, unnumbered
			out.writesJSON = sw
		} else {
			sw.Switch = &w.Switch
			out.Writes = append(out.Writes, sw)
		}
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
		return printJSON(applyJSON{File: *file, From: *from, Apply: newReportJSON(rep), NoopReapply: newReportJSON(re)})
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
	printDelta(&intent.Delta{Actions: rep.Actions, Global: rep.Global})
	if len(rep.Build.Stages) > 0 {
		fmt.Print(rep.Build.Summary())
	}
	if f := rep.Fabric; f != nil && len(f.Switches) > 0 {
		fmt.Printf("fabric path: %v (reprogrammed %v)\n", f.Switches, f.Changed)
		for _, id := range cluster.SortedKeys(f.Blackholed) {
			fmt.Printf("  chain %d blackholed: %s\n", id, f.Blackholed[id])
		}
	}
	for i := 0; rep.DryRun && i < len(rep.Writes); i++ {
		printWrites(rep.Writes[i], rep.Fabric != nil)
	}
	if !rep.DryRun {
		fmt.Printf("converged in %v: %d branching entries, %d program reloads\n",
			time.Duration(rep.ConvergenceNS), rep.DeltaEntries, rep.ProgramReloads)
	}
}

// printWrites lists one switch's write-set a dry run found, under the
// switch's number on a fabric: the pipelet programs the apply would
// reload and its branching-table delta.
func printWrites(w cluster.SwitchWrite, fabric bool) {
	if fabric {
		fmt.Printf("switch %d:\n", w.Switch)
	}
	if len(w.Programs) == 0 {
		fmt.Println("pipelet programs: all cached, none reloaded")
	} else {
		fmt.Printf("pipelet programs reloaded: %d\n", len(w.Programs))
		for _, pl := range w.Programs {
			fmt.Printf("  %s\n", pl)
		}
	}
	ops := make(map[route.OpKind]int)
	for _, op := range w.Delta {
		ops[op.Op]++
	}
	fmt.Printf("branching delta: %d ops (%d add, %d del, %d mod)\n",
		len(w.Delta), ops[route.OpAdd], ops[route.OpDel], ops[route.OpMod])
	for _, op := range w.Delta {
		fmt.Printf("  %s\n", op)
	}
}

// diffJSON is the `dejavu diff -json` document (docs/CLI.md).
type diffJSON struct {
	File    string `json:"file"`
	From    string `json:"from,omitempty"`
	Summary string `json:"summary"`
	Empty   bool   `json:"empty"`
	*intent.Delta
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
		return printJSON(diffJSON{File: *file, From: *from, Summary: delta.Summary(), Empty: delta.Empty(), Delta: delta})
	}
	fmt.Println(delta.Summary())
	printDelta(delta)
	return nil
}

// printDelta lists a delta's chain actions, no-ops left out, and its
// changed global settings.
func printDelta(d *intent.Delta) {
	for _, act := range d.Actions {
		if act.Kind != intent.KindNoOp {
			fmt.Printf("  %s\n", act.Detail)
		}
	}
	for _, g := range d.Global {
		fmt.Printf("  global: %s changed\n", g)
	}
}
