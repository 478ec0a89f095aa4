package config_test

import (
	"strings"
	"testing"

	"dejavu/internal/core"
	"dejavu/internal/intent"
	"dejavu/internal/lint"
)

// load reads a shipped config the way every dejavu command does: as an
// intent document, built into a deployment.
func load(path string) (*core.Config, error) {
	doc, err := intent.Load(path)
	if err != nil {
		return nil, err
	}
	return doc.BuildConfig()
}

// The shipped demo configs are golden inputs for the static verifier:
// edgecloud.json must be deployable (no error findings), and
// lintdemo-bad.json must trip the DV006/DV008 error rules.
func TestShippedConfigsLintVerdicts(t *testing.T) {
	good, err := load("../../configs/edgecloud.json")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Lint(*good)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasErrors() {
		t.Errorf("edgecloud.json has lint errors:\n%s", rep)
	}

	bad, err := load("../../configs/lintdemo-bad.json")
	if err != nil {
		t.Fatal(err)
	}
	badRep, err := core.Lint(*bad)
	if err != nil {
		t.Fatal(err)
	}
	if !badRep.HasErrors() {
		t.Fatalf("lintdemo-bad.json produced no errors:\n%s", badRep)
	}
	for _, rule := range []string{"DV006", "DV008"} {
		found := false
		for _, f := range badRep.ByRule(rule) {
			if f.Severity == lint.SevError {
				found = true
			}
		}
		if !found {
			t.Errorf("lintdemo-bad.json missing %s error finding:\n%s", rule, badRep)
		}
	}
}

func TestStrictLintFieldGatesDeploy(t *testing.T) {
	cfg, err := load("../../configs/lintdemo-bad.json")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.StrictLint {
		t.Fatal("lintdemo-bad.json unexpectedly sets strict_lint")
	}
	// The broken config deploys when unstrict...
	if _, err := core.Deploy(*cfg); err != nil {
		t.Fatalf("unstrict deploy failed: %v", err)
	}
	// ...and is refused by the lint gate when strict.
	cfg.StrictLint = true
	if _, err := core.Deploy(*cfg); err == nil {
		t.Fatal("strict deploy accepted a config with lint errors")
	} else if !strings.Contains(err.Error(), "DV00") {
		t.Errorf("strict deploy error does not cite a rule: %v", err)
	}
}
