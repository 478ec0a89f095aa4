package main

import (
	"bytes"
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
