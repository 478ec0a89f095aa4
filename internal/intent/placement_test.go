package intent

import (
	"maps"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/config"
	"dejavu/internal/pipeline"
)

// natDoc is configs/edgecloud.json under the anneal optimizer, with a
// NAT section no chain uses yet.
func natDoc(t *testing.T) *Document {
	t.Helper()
	doc, err := Load("../../configs/edgecloud.json")
	if err != nil {
		t.Fatal(err)
	}
	doc.Optimizer, doc.AnnealSeed = "anneal", 1
	doc.NAT = &config.NATSpec{PublicIP: "192.0.2.1", SessionCapacity: 1024}
	return doc
}

// TestApplyHintsAnIntroducedNF: a placement hint for an NF that a new
// chain introduces lands the NF there, and no live NF moves for it.
func TestApplyHintsAnIntroducedNF(t *testing.T) {
	base := natDoc(t)
	base.Placement = map[string]string{"fw": "egress 1"}
	a := NewApplier(nil)
	applyDoc(t, a, base)
	before := a.Deployment().Placement.Clone()

	next := base.Clone()
	next.Chains = append(next.Chains, config.ChainSpec{PathID: 50, NFs: []string{"classifier", "nat"}, Weight: 0.1})
	next.Placement["nat"] = "ingress 1"
	rep := applyDoc(t, a, next)
	if rep.Redeployed {
		t.Fatalf("a chain add redeployed: %s", rep.Summary())
	}
	after := a.Deployment().Placement
	if at, _ := after.Of("nat"); at != (asic.PipeletID{Pipeline: 1, Dir: asic.Ingress}) {
		t.Errorf("nat on %s, hinted to ingress 1", at)
	}
	for name, at := range before.NF {
		if now, _ := after.Of(name); now != at {
			t.Errorf("live NF %s moved from %s to %s", name, at, now)
		}
	}
}

// TestApplyKeepsOrResolves is the rule that decides, per update,
// whether live NFs stay where they run or the whole placement is solved
// again. Every case re-weights the chains toward path 20, so a fresh
// solve would move lb and vgw: what the case's apply leaves tells the
// two apart.
func TestApplyKeepsOrResolves(t *testing.T) {
	reweighted := func(doc *Document) *Document {
		for i, w := range []float64{0.05, 0.9, 0.05} {
			doc.Chains[i].Weight = w
		}
		return doc
	}
	for _, c := range []struct {
		name     string
		base     func(*Document)
		next     func(*Document)
		resolves bool
	}{
		{"same settings keep", nil, func(*Document) {}, false},
		{"an optimizer change re-solves", nil, func(d *Document) { d.Optimizer = "exhaustive" }, true},
		{"a seed change re-solves", nil, func(d *Document) { d.AnnealSeed = 2 }, true},
		{"a pin added on a live NF re-solves", nil, func(d *Document) { d.Placement = map[string]string{"fw": "egress 0"} }, true},
		{"a pin moved on a live NF re-solves",
			func(d *Document) { d.Placement = map[string]string{"router": "ingress 0"} },
			func(d *Document) { d.Placement = map[string]string{"router": "egress 0"} }, true},
		{"a pin removed from a live NF re-solves",
			func(d *Document) { d.Placement = map[string]string{"fw": "egress 0"} },
			func(d *Document) { d.Placement = nil }, true},
		{"a pin on an introduced NF keeps the live NFs",
			func(d *Document) { d.Placement = map[string]string{"fw": "egress 1"} },
			func(d *Document) {
				d.Chains = append(d.Chains, config.ChainSpec{PathID: 50, NFs: []string{"classifier", "nat"}, Weight: 0.1})
				d.Placement["nat"] = "ingress 1"
			}, false},
		{"removing the only chain of a hinted NF keeps the rest",
			func(d *Document) { d.Placement = map[string]string{"lb": "ingress 0"} },
			func(d *Document) { d.Chains, d.Placement = d.Chains[1:], nil }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			base := natDoc(t)
			if c.base != nil {
				c.base(base)
			}
			a := NewApplier(nil)
			applyDoc(t, a, base)
			live := a.Deployment().Placement.Clone()

			next := reweighted(base.Clone())
			c.next(next)
			cfg, err := next.BuildConfig()
			if err != nil {
				t.Fatal(err)
			}
			fresh, _, err := pipeline.ResolvePlacement(pipeline.Inputs{
				Prof: cfg.Prof, Chains: cfg.Chains, NFs: cfg.NFs, Enter: cfg.Enter,
				Optimizer: string(cfg.Optimizer), Pin: cfg.Pin, AnnealSeed: cfg.AnnealSeed,
			})
			if err != nil {
				t.Fatal(err)
			}
			// kept and resolved are where the next document's NFs run
			// after a keep and after a re-solve; an introduced NF is
			// in neither.
			kept, resolved := make(map[string]asic.PipeletID), make(map[string]asic.PipeletID)
			for _, ch := range cfg.Chains {
				for _, n := range ch.NFs {
					if at, ok := live.Of(n); ok {
						kept[n], resolved[n] = at, fresh.NF[n]
					}
				}
			}
			if maps.Equal(kept, resolved) {
				t.Fatalf("a fresh solve leaves every live NF where it runs, so this case cannot tell keep from re-solve: %v", kept)
			}

			rep := applyDoc(t, a, next)
			if rep.Redeployed {
				t.Fatalf("redeployed: %s", rep.Summary())
			}
			got, want := a.Deployment().Placement, kept
			if c.resolves {
				want = resolved
			}
			for n, at := range want {
				if now, _ := got.Of(n); now != at {
					t.Errorf("%s on %s, want %s (resolves: %v)", n, now, at, c.resolves)
				}
			}
		})
	}
}
