package compose

import (
	"fmt"
	"math/rand"
	"testing"

	"dejavu/internal/asic"
	"dejavu/internal/nf"
	"dejavu/internal/packet"
	"dejavu/internal/route"
)

// renamedNF lets one passthrough implementation play many chain roles.
type renamedNF struct {
	*nf.Firewall
	name string
}

func (r renamedNF) Name() string { return r.name }

// TestStaticDynamicEquivalenceRandomized is the load-bearing
// correctness property of the whole system: for arbitrary placements
// and composition modes, the static traversal planner (route.Plan,
// which drives placement optimization and capacity analysis) must
// predict exactly the pipelet path, recirculation count and
// resubmission count that the behavioural datapath produces.
func TestStaticDynamicEquivalenceRandomized(t *testing.T) {
	const trials = 60
	prof := asic.Wedge100B()
	pipelets := []asic.PipeletID{
		{Pipeline: 0, Dir: asic.Ingress}, {Pipeline: 0, Dir: asic.Egress},
		{Pipeline: 1, Dir: asic.Ingress}, {Pipeline: 1, Dir: asic.Egress},
	}

	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		nMiddle := 1 + rng.Intn(5) // 1..5 passthrough NFs between classifier and router

		names := []string{"classifier"}
		for i := 0; i < nMiddle; i++ {
			names = append(names, fmt.Sprintf("p%d", i))
		}
		names = append(names, "router")

		chain := route.Chain{
			PathID: 7, NFs: names, Weight: 1, ExitPipeline: 0,
		}

		// NFs: real classifier (default path 7), passthrough firewalls,
		// real router with a default route out of pipeline 0.
		classifier := nf.NewClassifier(7, chain.InitialIndex())
		router := nf.NewRouter()
		if err := router.AddRoute(packet.IP4{0, 0, 0, 0}, 0, nf.NextHop{Port: 3}); err != nil {
			t.Fatal(err)
		}
		nfs := nf.List{classifier, router}
		for i := 0; i < nMiddle; i++ {
			nfs = append(nfs, renamedNF{Firewall: nf.NewFirewall(true), name: fmt.Sprintf("p%d", i)})
		}

		// Random placement: classifier pinned to ingress 0 (it must see
		// fresh external traffic); everything else anywhere; random
		// composition modes.
		placement := route.NewPlacement()
		placement.Assign("classifier", asic.PipeletID{Pipeline: 0, Dir: asic.Ingress})
		for _, n := range names[1:] {
			placement.Assign(n, pipelets[rng.Intn(len(pipelets))])
		}
		for _, pl := range pipelets {
			if rng.Intn(2) == 0 {
				placement.SetMode(pl, route.Parallel)
			}
		}

		static, err := route.Plan(chain, placement, 0)
		if err != nil {
			t.Fatalf("trial %d: static plan: %v", trial, err)
		}

		comp, err := New(prof, []route.Chain{chain}, placement, nfs)
		if err != nil {
			t.Fatalf("trial %d: compose: %v", trial, err)
		}
		dep, err := build(comp)
		if err != nil {
			t.Fatalf("trial %d: build: %v", trial, err)
		}
		sw := asic.New(prof)
		if err := dep.InstallOn(sw); err != nil {
			t.Fatal(err)
		}

		pkt := packet.NewUDP(packet.UDPOpts{
			Src: packet.IP4{198, 51, 100, 1}, Dst: packet.IP4{192, 0, 2, byte(trial + 1)},
			SrcPort: uint16(1000 + trial), DstPort: 53,
		})
		tr, err := sw.Inject(2, pkt)
		if err != nil {
			t.Fatalf("trial %d: inject: %v", trial, err)
		}
		if tr.Dropped || len(tr.CPU) > 0 {
			t.Fatalf("trial %d: packet lost: dropped=%v(%s) cpu=%d placement=%v",
				trial, tr.Dropped, tr.DropReason, len(tr.CPU), placement.NF)
		}
		if len(tr.Out) != 1 || tr.Out[0].Port != 3 {
			t.Fatalf("trial %d: out = %+v, want port 3", trial, tr.Out)
		}

		if tr.Recirculations != static.Recirculations {
			t.Errorf("trial %d: recirculations: dynamic %d vs static %d\n placement=%v modes=%v\n dynamic: %s\n static:  %s",
				trial, tr.Recirculations, static.Recirculations,
				placement.NF, placement.Mode, tr.Path(), static.Path())
			continue
		}
		if tr.Resubmissions != static.Resubmissions {
			t.Errorf("trial %d: resubmissions: dynamic %d vs static %d\n dynamic: %s\n static:  %s",
				trial, tr.Resubmissions, static.Resubmissions, tr.Path(), static.Path())
			continue
		}
		if got, want := tr.Path(), static.Path(); got != want {
			t.Errorf("trial %d: traversal mismatch\n placement=%v modes=%v\n dynamic: %s\n static:  %s",
				trial, placement.NF, placement.Mode, got, want)
		}
	}
}

// TestStaticDynamicEquivalenceMultiChain repeats the equivalence check
// with several weighted chains sharing NFs, driven by classifier rules.
func TestStaticDynamicEquivalenceMultiChain(t *testing.T) {
	prof := asic.Wedge100B()
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(1000 + trial)))

		classifier := nf.NewClassifier(9, 2) // default: classifier->router
		router := nf.NewRouter()
		if err := router.AddRoute(packet.IP4{0, 0, 0, 0}, 0, nf.NextHop{Port: 4}); err != nil {
			t.Fatal(err)
		}
		shared := renamedNF{Firewall: nf.NewFirewall(true), name: "shared"}
		extra := renamedNF{Firewall: nf.NewFirewall(true), name: "extra"}
		nfs := nf.List{classifier, router, shared, extra}

		chains := []route.Chain{
			{PathID: 9, NFs: []string{"classifier", "router"}, Weight: 0.2, ExitPipeline: 0},
			{PathID: 11, NFs: []string{"classifier", "shared", "router"}, Weight: 0.5, ExitPipeline: 0},
			{PathID: 12, NFs: []string{"classifier", "shared", "extra", "router"}, Weight: 0.3, ExitPipeline: 0},
		}
		dst11 := packet.IP4{10, 99, 0, 1}
		dst12 := packet.IP4{10, 99, 0, 2}
		if err := classifier.AddRule(nf.ClassRule{
			DstIP: dst11, DstMask: packet.IP4{255, 255, 255, 255},
			Priority: 10, Path: 11, InitialIndex: 3,
		}); err != nil {
			t.Fatal(err)
		}
		if err := classifier.AddRule(nf.ClassRule{
			DstIP: dst12, DstMask: packet.IP4{255, 255, 255, 255},
			Priority: 10, Path: 12, InitialIndex: 4,
		}); err != nil {
			t.Fatal(err)
		}

		pipelets := []asic.PipeletID{
			{Pipeline: 0, Dir: asic.Ingress}, {Pipeline: 0, Dir: asic.Egress},
			{Pipeline: 1, Dir: asic.Ingress}, {Pipeline: 1, Dir: asic.Egress},
		}
		placement := route.NewPlacement()
		placement.Assign("classifier", asic.PipeletID{Pipeline: 0, Dir: asic.Ingress})
		for _, n := range []string{"shared", "extra", "router"} {
			placement.Assign(n, pipelets[rng.Intn(len(pipelets))])
		}

		comp, err := New(prof, chains, placement, nfs)
		if err != nil {
			t.Fatal(err)
		}
		dep, err := build(comp)
		if err != nil {
			t.Fatal(err)
		}
		sw := asic.New(prof)
		dep.InstallOn(sw)

		for i, tc := range []struct {
			dst   packet.IP4
			chain route.Chain
		}{
			{packet.IP4{8, 8, 8, 8}, chains[0]},
			{dst11, chains[1]},
			{dst12, chains[2]},
		} {
			static, err := route.Plan(tc.chain, placement, 0)
			if err != nil {
				t.Fatal(err)
			}
			pkt := packet.NewUDP(packet.UDPOpts{
				Src: packet.IP4{198, 51, 100, 2}, Dst: tc.dst,
				SrcPort: uint16(2000 + i), DstPort: 53,
			})
			tr, err := sw.Inject(1, pkt)
			if err != nil {
				t.Fatal(err)
			}
			if tr.Dropped || len(tr.Out) != 1 {
				t.Fatalf("trial %d chain %d: lost: dropped=%v(%s)", trial, tc.chain.PathID, tr.Dropped, tr.DropReason)
			}
			if tr.Path() != static.Path() {
				t.Errorf("trial %d chain %d: dynamic %s vs static %s (placement %v)",
					trial, tc.chain.PathID, tr.Path(), static.Path(), placement.NF)
			}
		}
	}
}
