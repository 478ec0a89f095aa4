package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/cluster"
	"dejavu/internal/intent"
)

var update = flag.Bool("update", false, "rewrite the CLI goldens (testdata) from this build")

// runCLI runs one command line in process, as main does, and returns
// what it printed on standard output.
func runCLI(t *testing.T, line string) (string, error) {
	t.Helper()
	defer func(saved string) { configPath = saved }(configPath)
	return capture(t, func() error { return dispatch(strings.Fields(line)) })
}

// capture runs fn with standard output redirected to a file and
// returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = f
	fnErr := fn()
	os.Stdout = saved
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(out), fnErr
}

// TestCLIGolden holds each command line's standard output to the bytes
// in its testdata file, written by the CLI itself. A change meant to
// keep what the commands print must keep these files; one meant to
// change it rewrites them with `go test ./cmd/dejavu -run TestCLIGolden
// -update` and says why. Each row runs as a subtest named after its
// golden file, so `-run 'TestCLIGolden/chaos_'` checks the chaos rows
// alone. The rows hold no wall-clock reading: latencies
// in `run` are the switch model's, `plan`'s text report has no stage
// durations, and every "duration_ns" of `plan -json` is written and
// compared as 0. The -config plan row plans the document's own
// optimizer. The apply -dry-run rows pin a live update's rebuild plan
// and write-set: one adds a chain over placed NFs, one introduces a NAT
// that the deploy's optimizer places around the live NFs; a fresh dry
// run refuses a loopback port off the front panel, as the apply does;
// a fabric dry run that pins fw to switch 2 lists each switch's
// write-set, in text and JSON.
// The chaos rows pin
// the single-switch soak with its
// transcript (every heal action), the 3-switch fabric soak for the
// canonical seeds (seed 7 with its transcript too) and the soak of a
// -config document; the emit rows pin the composed P4 program, which
// `pipeline/hash.go` also fingerprints.
func TestCLIGolden(t *testing.T) {
	durations := regexp.MustCompile(`"duration_ns": \d+`)
	for _, row := range []struct {
		line, golden string
		fails        bool // the command exits nonzero on purpose
	}{
		{"plan", "plan.txt", false},
		{"plan -optimizer manual -loopback 16", "plan_manual_loopback16.txt", false},
		{"plan -json", "plan.json", false},
		{"-config ../../configs/edgecloud.json plan -json", "plan_edgecloud.json", false},
		{"-config ../../examples/intent/intent.json plan", "plan_intent.txt", false},
		{"apply -from testdata/intent_add40_from.json -f testdata/intent_add40.json -dry-run", "apply_dryrun_add40.txt", false},
		{"apply -from testdata/intent_nat.json -f testdata/intent_nat_add50.json -dry-run", "apply_dryrun_nat_add50.txt", false},
		{"apply -f testdata/intent_loopback500.json -dry-run", "apply_dryrun_loopback500.txt", true},
		{"apply -from testdata/intent_fabric.json -f testdata/intent_fabric_pin.json -dry-run", "apply_dryrun_fabric_pin.txt", false},
		{"apply -from testdata/intent_fabric.json -f testdata/intent_fabric_pin.json -dry-run -json", "apply_dryrun_fabric_pin.json", false},
		{"lint -json", "lint_reference.json", false},
		{"-config ../../configs/edgecloud.json lint -json", "lint_edgecloud.json", false},
		{"-config ../../configs/lintdemo-bad.json lint -json", "lint_lintdemo-bad.json", true},
		{"run", "run.txt", false},
		{"diff -json -f ../../examples/intent/intent.json", "diff_intent.json", false},
		{"chaos -seed 1 -ticks 40 -v -json", "chaos_seed1.json", false},
		{"chaos -seed 7 -ticks 40 -v -json", "chaos_seed7.json", false},
		{"chaos -seed 42 -ticks 40 -v -json", "chaos_seed42.json", false},
		{"chaos -switches 3 -seed 1 -json", "chaos_switches3_seed1.json", false},
		{"chaos -switches 3 -seed 7 -json", "chaos_switches3_seed7.json", false},
		{"chaos -switches 3 -seed 42 -json", "chaos_switches3_seed42.json", false},
		{"chaos -switches 3 -seed 7 -ticks 40 -v -json", "chaos_switches3_seed7_v.json", false},
		{"-config ../../configs/edgecloud.json chaos -seed 1 -v -json", "chaos_edgecloud_seed1.json", false},
		{"emit", "emit_reference.p4", false},
		{"-config ../../configs/edgecloud.json emit", "emit_edgecloud.p4", false},
	} {
		name := strings.TrimSuffix(row.golden, filepath.Ext(row.golden))
		t.Run(name, func(t *testing.T) {
			got, err := runCLI(t, row.line)
			if (err != nil) != row.fails {
				t.Errorf("dejavu %s: error %v, want failure %v", row.line, err, row.fails)
			}
			got = durations.ReplaceAllString(got, `"duration_ns": 0`)
			file := filepath.Join("testdata", row.golden)
			if *update {
				if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("dejavu %s: output differs from %s:\n%s", row.line, file, got)
			}
		})
	}
}

// TestResourcesDeterministic: `dejavu plan` prints the same bytes on
// every run, the per-pipelet allocation rows in the profile's pipelet
// order. They ranged over the plan map, so two of five runs differed.
func TestResourcesDeterministic(t *testing.T) {
	var first string
	for run := 0; run < 8; run++ {
		d, err := deploy("manual", 0)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		writePlan(&out, d, 1600)
		if run == 0 {
			first = out.String()
			rows := first[strings.Index(first, "per-pipelet stage allocation:"):]
			at := 0
			for _, pl := range d.Config.Prof.Pipelets() {
				i := strings.Index(rows[at:], "  "+pl.String())
				if i < 0 {
					t.Fatalf("pipelet %s missing or out of profile order in:\n%s", pl, first)
				}
				at += i
			}
		} else if out.String() != first {
			t.Fatalf("run %d differs from run 0:\n%s\nvs\n%s", run, out.String(), first)
		}
	}
}

// TestApplyReportBlackholedInChainOrder: the apply report lists a
// fabric's blackholed chains in chain order, every time. It ranged over
// the map.
func TestApplyReportBlackholedInChainOrder(t *testing.T) {
	rep := &intent.Report{DryRun: true, Fabric: &cluster.ReconcileReport{
		Switches:   []int{0, 1},
		Blackholed: map[uint16]string{30: "no room", 10: "no room", 20: "no room"},
	}}
	for run := 0; run < 20; run++ {
		out, _ := capture(t, func() error { printApplyReport(rep); return nil })
		i10, i20, i30 := strings.Index(out, "chain 10 "), strings.Index(out, "chain 20 "), strings.Index(out, "chain 30 ")
		if i10 < 0 || !(i10 < i20 && i20 < i30) {
			t.Fatalf("run %d: blackholed chains out of order:\n%s", run, out)
		}
	}
}

// TestChaosFaultSurfaceNamesDocumentPorts: `chaos -config` faults only
// front-panel ports the document uses. It cast the entry pipeline index
// to a wire port.
func TestChaosFaultSurfaceNamesDocumentPorts(t *testing.T) {
	docs, err := filepath.Glob("../../configs/*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range append(docs, "../../examples/intent/intent.json") {
		doc, cfg, err := loadDocument(path)
		if err != nil {
			t.Fatal(err)
		}
		uses := make(map[asic.PortID]bool)
		for _, p := range doc.LoopbackPorts {
			uses[asic.PortID(p)] = true
		}
		for _, c := range doc.Chains {
			if c.StaticExitPort != 0 {
				uses[asic.PortID(c.StaticExitPort)] = true
			}
		}
		if doc.Router != nil {
			for _, r := range doc.Router.Routes {
				uses[asic.PortID(r.Port)] = true
			}
		}
		so := faultSurface(doc, cfg.Prof, 40)
		if len(so.WirePorts) == 0 {
			t.Errorf("%s: no wire ports to corrupt", path)
		}
		for _, ports := range [][]asic.PortID{so.WirePorts, so.FlapPorts, so.RecircPorts} {
			for _, p := range ports {
				if !uses[p] || int(p) >= cfg.Prof.TotalPorts() {
					t.Errorf("%s: fault surface names port %d, not a front-panel port the document uses", path, p)
				}
			}
		}
	}
}

// TestChaosRefusesNegativeOptions: a negative -ticks or -switches is
// refused with an error naming the option. Both were replaced by a
// default: `-ticks -5` ran 40 ticks under a 20-tick fault schedule, and
// `-switches -2` a 3-switch fabric.
func TestChaosRefusesNegativeOptions(t *testing.T) {
	for line, option := range map[string]string{
		"chaos -ticks -5 -seed 7": "ticks",
		"chaos -switches -2":      "switches",
	} {
		_, err := runCLI(t, line)
		if err == nil || !strings.Contains(err.Error(), option) {
			t.Errorf("dejavu %s: error %v, want one naming %s", line, err, option)
		}
	}
}

// TestSingleSwitchCommandsRefuseFabricDocument: a document with a fabric
// section is refused, with errFabricDocument, by every command that
// deploys one switch from it.
func TestSingleSwitchCommandsRefuseFabricDocument(t *testing.T) {
	raw, err := os.ReadFile("../../examples/intent/intent.json")
	if err != nil {
		t.Fatal(err)
	}
	fleet := filepath.Join(t.TempDir(), "fleet.json")
	raw = bytes.Replace(raw, []byte(`"version": 1,`), []byte(`"version": 1, "fabric": {"switches": 3},`), 1)
	if err := os.WriteFile(fleet, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"-config " + fleet + " plan",
		"-config " + fleet + " lint",
		"-config " + fleet + " chaos",
	} {
		if _, err := runCLI(t, line); !errors.Is(err, errFabricDocument) {
			t.Errorf("dejavu %s: error %v, want errFabricDocument", line, err)
		}
	}
}

// TestDocsNameOnlyCommands: every `dejavu <word>` the user-facing docs
// quote (README.md, DESIGN.md, docs/*.md; a global -config flag
// skipped, `a|b|c` alternatives each checked) names an entry of the
// command table, so a removed subcommand cannot stay advertised.
func TestDocsNameOnlyCommands(t *testing.T) {
	known := make(map[string]bool, len(commands))
	for _, c := range commands {
		known[c.name] = true
	}
	docs, err := filepath.Glob("../../docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "../../README.md", "../../DESIGN.md")
	mention := regexp.MustCompile(`\bdejavu (?:-config \S+ )?([a-z][a-z0-9|]*)`)
	for _, doc := range docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range mention.FindAllStringSubmatch(line, -1) {
				for _, word := range strings.Split(m[1], "|") {
					if word != "" && !known[word] {
						t.Errorf("%s:%d: `dejavu %s` names no subcommand", filepath.Base(doc), i+1, word)
					}
				}
			}
		}
	}
}
