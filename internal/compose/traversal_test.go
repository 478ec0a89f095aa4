package compose

import (
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/nf"
	"dejavu/internal/packet"
	"dejavu/internal/route"
)

// pathRewriter is a passthrough NF that moves a packet from one chain
// to another by rewriting its SFC path ID, as any NF may.
type pathRewriter struct {
	renamedNF
	from, to uint16
}

func (r pathRewriter) Execute(hdr *packet.Parsed) {
	if hdr.SFC.ServicePathID == r.from {
		hdr.SFC.ServicePathID = r.to
	}
}

// TestTraversalFollowsRewrittenPath: a pipelet resolves its packet's
// chain once, so an NF that rewrites the path ID mid-pipelet must make
// it resolve again. Chains 7 and 9 share their first two NFs; the
// second moves every packet of chain 7 onto chain 9, which then must
// take chain 9's NF and chain 9's branching wherever chain 7's next NF
// sits. A path no chain declares still punts and is still counted.
func TestTraversalFollowsRewrittenPath(t *testing.T) {
	prof := asic.Wedge100B()
	chains := []route.Chain{
		{PathID: 7, NFs: []string{"classifier", "sw", "a", "router"}, Weight: 0.5, ExitPipeline: 0},
		{PathID: 9, NFs: []string{"classifier", "sw", "b", "router"}, Weight: 0.5, ExitPipeline: 0},
	}
	dst9 := packet.IP4{10, 99, 0, 9}
	dst13 := packet.IP4{10, 99, 0, 13}
	pipelets := []asic.PipeletID{
		{Pipeline: 0, Dir: asic.Ingress}, {Pipeline: 0, Dir: asic.Egress},
		{Pipeline: 1, Dir: asic.Ingress}, {Pipeline: 1, Dir: asic.Egress},
	}
	for _, at := range pipelets {
		classifier := nf.NewClassifier(7, 4)
		for _, r := range []nf.ClassRule{classRuleFor(dst9, 9, 4), classRuleFor(dst13, 13, 2)} {
			if err := classifier.AddRule(r); err != nil {
				t.Fatal(err)
			}
		}
		router := nf.NewRouter()
		if err := router.AddRoute(packet.IP4{0, 0, 0, 0}, 0, nf.NextHop{Port: 3}); err != nil {
			t.Fatal(err)
		}
		pass := func(name string) renamedNF { return renamedNF{Firewall: nf.NewFirewall(true), name: name} }
		nfs := nf.List{classifier, router, pathRewriter{renamedNF: pass("sw"), from: 7, to: 9}, pass("a"), pass("b")}

		placement := route.NewPlacement()
		placement.Assign("classifier", pipelets[0])
		placement.Assign("sw", pipelets[0])
		placement.Assign("a", at)
		placement.Assign("b", pipelets[2])
		placement.Assign("router", pipelets[1])
		comp, err := New(prof, chains, placement, nfs)
		if err != nil {
			t.Fatal(err)
		}
		dep, err := build(comp)
		if err != nil {
			t.Fatal(err)
		}
		sw := asic.New(prof)
		if err := dep.InstallOn(sw); err != nil {
			t.Fatal(err)
		}
		static, err := route.Plan(chains[1], placement, 0)
		if err != nil {
			t.Fatal(err)
		}

		// One packet classified onto chain 7 (the miss default) and moved,
		// one classified onto chain 9 directly: the same journey.
		for i, dst := range []packet.IP4{{192, 0, 2, 1}, dst9} {
			pkt := packet.NewUDP(packet.UDPOpts{Src: packet.IP4{198, 51, 100, 1}, Dst: dst, SrcPort: uint16(1000 + i), DstPort: 53})
			tr, err := sw.Inject(2, pkt)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Dropped || len(tr.CPU) > 0 || len(tr.Out) != 1 || tr.Out[0].Port != 3 {
				t.Fatalf("a on %v, packet to %v: dropped=%v (%s), cpu=%d, out=%+v; want out port 3",
					at, dst, tr.Dropped, tr.DropReason, len(tr.CPU), tr.Out)
			}
			if got, want := tr.Path(), static.Path(); got != want {
				t.Errorf("a on %v, packet to %v: traversal %s, chain 9's plan %s", at, dst, got, want)
			}
		}
		tel := comp.Telemetry()
		if a, b := tel.NFExecutions("a"), tel.NFExecutions("b"); a != 0 || b != 2 {
			t.Errorf("a on %v: a ran %d times, b %d; want 0 and 2", at, a, b)
		}
		if p7, p9 := tel.PathPackets(7), tel.PathPackets(9); p7 != 1 || p9 != 1 {
			t.Errorf("a on %v: classified onto path 7: %d, path 9: %d; want 1 and 1", at, p7, p9)
		}

		pkt := packet.NewUDP(packet.UDPOpts{Src: packet.IP4{198, 51, 100, 1}, Dst: dst13, SrcPort: 1013, DstPort: 53})
		tr, err := sw.Inject(2, pkt)
		if err != nil {
			t.Fatal(err)
		}
		if len(tr.CPU) != 1 {
			t.Errorf("a on %v: undeclared path 13: cpu=%d dropped=%v out=%+v; want one punt", at, len(tr.CPU), tr.Dropped, tr.Out)
		}
		if got := tel.PathPackets(13); got != 1 {
			t.Errorf("a on %v: undeclared path 13 counted %d times, want 1", at, got)
		}
	}
}
