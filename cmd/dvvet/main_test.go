package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"dejavu/internal/analysis"
)

// fixtureModule is the analyzer fixture module: seeded violations for
// every analyzer, plus conforming packages.
const fixtureModule = "../../internal/analysis/testdata"

// TestFixtureFindings drives dvvet -json over the fixture module: it
// exits 2 and prints exactly the diagnostics RunPackages reports.
func TestFixtureFindings(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(fixtureModule, []string{"./..."}, true, &stdout, &stderr); code != 2 {
		t.Fatalf("exit status %d, want 2; stderr:\n%s", code, stderr.String())
	}
	var got []analysis.Diagnostic
	if err := json.Unmarshal(stdout.Bytes(), &got); err != nil {
		t.Fatalf("decoding -json output: %v\n%s", err, stdout.String())
	}

	prog, err := analysis.Load(fixtureModule, "./...")
	if err != nil {
		t.Fatal(err)
	}
	want, err := analysis.RunPackages(prog, analysis.Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	if len(want.Diagnostics) == 0 {
		t.Fatal("fixture module produced no diagnostics")
	}
	if !reflect.DeepEqual(got, want.Diagnostics) {
		t.Errorf("-json findings differ from RunPackages:\n got %v\nwant %v", got, want.Diagnostics)
	}
}

// TestCleanPackageJSON: a clean package exits 0 and -json prints an
// empty array, the same type it prints when there are findings.
func TestCleanPackageJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(fixtureModule, []string{"./hotok"}, true, &stdout, &stderr); code != 0 {
		t.Fatalf("exit status %d, want 0; stdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if got := stdout.String(); got != "[]\n" {
		t.Errorf("-json on a clean package printed %q, want %q", got, "[]\n")
	}
}
