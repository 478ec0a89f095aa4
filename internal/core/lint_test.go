package core_test

import (
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/core"
	"dejavu/internal/intent"
	"dejavu/internal/nf"
	"dejavu/internal/p4"
	"dejavu/internal/route"
	"dejavu/internal/scenario"
)

var update = flag.Bool("update", false, "rewrite the lint goldens (testdata) from this build")

// overflowConfig is the §5 scenario with all five NFs hand-placed on
// ingress 0: the pipelet program needs more MAU stages than it has.
func overflowConfig() core.Config {
	s := scenario.MustNew()
	p := route.NewPlacement()
	for _, f := range s.NFs {
		p.Assign(f.Name(), asic.PipeletID{Pipeline: 0, Dir: asic.Ingress})
	}
	return core.Config{Prof: s.Prof, Chains: s.Chains, NFs: s.NFs, Placement: p}
}

// reparsed is a firewall playing a named chain role with its own parser
// fragment.
type reparsed struct {
	*nf.Firewall
	name   string
	parser *p4.ParserGraph
}

func (r reparsed) Name() string            { return r.name }
func (r reparsed) Parser() *p4.ParserGraph { return r.parser }

// ambiguousConfig chains two NFs whose parser fragments send
// ethernet.ether_type=0x0800 to different successors.
func ambiguousConfig() core.Config {
	eth := p4.Vertex{Type: "ethernet", Offset: 0}
	fragment := func(next string) *p4.ParserGraph {
		to := p4.Vertex{Type: next, Offset: 14}
		g := p4.NewParserGraph(eth)
		g.MustEdge(p4.Transition{From: eth, Select: "ethernet.ether_type", Value: 0x0800, To: to})
		g.MustEdge(p4.Transition{From: to, Default: true, To: p4.Accept()})
		return g
	}
	a := reparsed{Firewall: nf.NewFirewall(true), name: "a", parser: fragment("ipv4")}
	b := reparsed{Firewall: nf.NewFirewall(true), name: "b", parser: fragment("arp")}
	p := route.NewPlacement()
	p.Assign("a", asic.PipeletID{Pipeline: 0, Dir: asic.Ingress})
	p.Assign("b", asic.PipeletID{Pipeline: 0, Dir: asic.Egress})
	return core.Config{
		Prof:      asic.Wedge100B(),
		Chains:    []route.Chain{{PathID: 10, NFs: []string{"a", "b"}, Weight: 1}},
		NFs:       nf.List{a, b},
		Placement: p,
	}
}

// undeployable are the inputs whose lint report names why no deploy
// builds them: a stage-budget overflow (DV001) and a parser-merge
// ambiguity (DV004).
var undeployable = map[string]func() core.Config{
	"overflow":  overflowConfig,
	"ambiguous": ambiguousConfig,
}

// TestLintGolden pins `dejavu lint`'s report on the inputs a deploy
// refuses: each must name its error finding, byte for byte.
func TestLintGolden(t *testing.T) {
	for name, cfg := range undeployable {
		t.Run(name, func(t *testing.T) {
			rep, err := core.Lint(cfg())
			if err != nil {
				t.Fatal(err)
			}
			got, err := rep.JSON()
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "lint_"+name+".json")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("lint report differs from %s:\n%s", path, got)
			}
		})
	}
}

// TestLintAgreesWithDeploy: lint reports an error exactly when a strict
// deploy refuses, and on every deployable input its report is the
// deployment's, finding for finding.
func TestLintAgreesWithDeploy(t *testing.T) {
	inputs := map[string]func() core.Config{}
	for name, cfg := range undeployable {
		inputs[name] = cfg
	}
	paths, err := filepath.Glob("../../configs/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped configs: %v", err)
	}
	for _, path := range paths {
		doc, err := intent.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		cfg, err := doc.BuildConfig()
		if err != nil {
			t.Fatal(err)
		}
		inputs[filepath.Base(path)] = func() core.Config { return *cfg }
	}
	for name, cfg := range inputs {
		t.Run(name, func(t *testing.T) {
			rep, err := core.Lint(cfg())
			if err != nil {
				t.Fatal(err)
			}
			strict := cfg()
			strict.StrictLint = true
			if _, err := core.Deploy(strict); rep.HasErrors() != (err != nil) {
				t.Fatalf("lint has errors %v, strict deploy error %v", rep.HasErrors(), err)
			}
			d, err := core.Deploy(cfg())
			if err != nil {
				if !rep.HasErrors() {
					t.Fatalf("lint is clean but the deploy fails: %v", err)
				}
				return
			}
			if !reflect.DeepEqual(rep.Findings, d.Lint.Findings) {
				t.Errorf("lint and deploy reports differ:\nlint:\n%s\ndeploy:\n%s", rep, d.Lint)
			}
		})
	}
}
