package intent

import (
	"testing"

	"dejavu/internal/core"
	"dejavu/internal/nf"
	"dejavu/internal/p4"
	"dejavu/internal/packet"
)

// TestSharedBlocksUnchangedByBuilds: the shared NF control blocks and
// parser fragments are read by every build in the process, so no build
// may change them. After a deploy, a one-chain apply, a 4-switch fabric
// reconcile and a lint, every shared block and fragment still emits,
// byte for byte, the text it was frozen with.
func TestSharedBlocksUnchangedByBuilds(t *testing.T) {
	a, toggle := churnApplier(t) // deploy
	toggle()                     // one-chain apply
	if _, err := core.Lint(a.Deployment().Config); err != nil {
		t.Fatal(err)
	}
	base, _ := churnDocs(t)
	fleet := base.Clone()
	fleet.Fabric = &FabricSpec{Switches: 4}
	rep := applyDoc(t, NewApplier(nil), fleet)
	if len(rep.Fabric.Changed) == 0 {
		t.Fatalf("the fabric apply reprogrammed no switch: %s", rep.Summary())
	}

	for _, f := range []nf.NF{
		nf.NewClassifier(1, 2), nf.NewFirewall(true), nf.NewFirewall(false),
		nf.NewVGW(packet.IP4{172, 16, 0, 1}, packet.MAC{2, 0, 0, 0, 0, 1}),
		nf.NewLoadBalancer(1024), nf.NewRouter(),
		nf.NewNAT(packet.IP4{192, 0, 2, 1}, 1024), nf.NewMirror(),
	} {
		b, g := f.Block(), f.Parser()
		if !b.Frozen() || !g.Frozen() {
			t.Fatalf("%s: block or parser is not shared", f.Name())
		}
		if got, want := p4.EmitControl(b.Clone()), p4.EmitControl(b); got != want {
			t.Errorf("%s: the shared block now emits\n%s\nfrozen with\n%s", f.Name(), got, want)
		}
		if got, want := p4.EmitParser(f.Name(), g.Clone()), p4.EmitParser(f.Name(), g); got != want {
			t.Errorf("%s: the shared parser now emits\n%s\nfrozen with\n%s", f.Name(), got, want)
		}
	}
}
