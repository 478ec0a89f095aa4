package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestResourcesDeterministic: `dejavu resources` prints the same bytes
// on every run, the per-pipelet rows in the profile's pipelet order. It
// ranged over the plan map, so two of five runs differed.
func TestResourcesDeterministic(t *testing.T) {
	var first string
	for run := 0; run < 8; run++ {
		d, err := deploy("manual", 0)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		writeResources(&out, d)
		if run == 0 {
			first = out.String()
			at := 0
			for _, pl := range d.Config.Prof.Pipelets() {
				i := strings.Index(first[at:], "  "+pl.String())
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

// TestEmitGolden holds `dejavu emit` to the committed bytes, for the
// reference scenario and for configs/edgecloud.json. A change to the
// IR, composition or emitter that is meant to keep the program must keep
// these files; one that means to change it regenerates them:
//
//	go run ./cmd/dejavu emit > cmd/dejavu/testdata/emit_reference.p4
//	go run ./cmd/dejavu -config configs/edgecloud.json emit > cmd/dejavu/testdata/emit_edgecloud.p4
func TestEmitGolden(t *testing.T) {
	defer func(saved string) { configPath = saved }(configPath)
	for _, c := range []struct{ config, golden string }{
		{"", "testdata/emit_reference.p4"},
		{"../../configs/edgecloud.json", "testdata/emit_edgecloud.p4"},
	} {
		configPath = c.config
		d, err := deploy("manual", 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.P4Source()
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(c.golden)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("emitted program differs from %s", c.golden)
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
