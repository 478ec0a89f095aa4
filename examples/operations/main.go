// Operations: the §7 operational story as a program — service upgrade
// (live chain addition), chain retirement, loopback port failure
// handling with capacity re-analysis, and emission of the composed
// multi-pipeline P4 program for review.
package main

import (
	"fmt"
	"log"
	"strings"

	"dejavu"
)

var (
	gwMAC  = dejavu.MAC{0x02, 0xDE, 0x1A, 0, 0, 1}
	client = dejavu.IP4{198, 51, 100, 10}
)

func main() {
	// Start with a small production deployment: classifier → router,
	// plus a metered tenant chain.
	classifier := dejavu.NewClassifier(30, 2)
	router := dejavu.NewRouter()
	must(router.AddRoute(dejavu.IP4{0, 0, 0, 0}, 0, dejavu.NextHop{Port: 1, SrcMAC: gwMAC}))
	nat := dejavu.NewNAT(dejavu.IP4{192, 0, 2, 1}, 4096)

	var loopback []dejavu.PortID
	for p := 16; p < 24; p++ {
		loopback = append(loopback, dejavu.PortID(p))
	}

	d, err := dejavu.Deploy(dejavu.Config{
		Prof: dejavu.Wedge100B(),
		Chains: []dejavu.Chain{
			{PathID: 30, NFs: []string{"classifier", "router"}, Weight: 1, ExitPipeline: 0},
		},
		NFs:           dejavu.NFs{classifier, router, nat},
		Optimizer:     dejavu.OptExhaustive,
		LoopbackPorts: loopback,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== initial deployment ===")
	fmt.Print(d.Summary())

	// --- Service upgrade: add a NAT chain live. -----------------------
	fmt.Println("\n=== live upgrade: add classifier → nat → router ===")
	if err := d.AddChain(dejavu.Chain{
		PathID: 40, NFs: []string{"classifier", "nat", "router"}, Weight: 0.3, ExitPipeline: 0,
	}); err != nil {
		log.Fatal(err)
	}
	must(classifier.AddRule(dejavu.ClassRule{
		SrcIP: dejavu.IP4{10, 0, 9, 0}, SrcMask: dejavu.IP4{255, 255, 255, 0},
		Priority: 40, Path: 40, InitialIndex: 3,
	}))
	for _, c := range d.Chains {
		fmt.Printf("  chain %d: %d recircs via %s\n", c.Chain.PathID, c.Recirculations, c.Traversal.Path())
	}

	// Drive a packet down the new chain: NAT learns via the controller.
	pkt := dejavu.NewTCP(dejavu.TCPOpts{
		Src: dejavu.IP4{10, 0, 9, 5}, Dst: dejavu.IP4{8, 8, 8, 8},
		SrcPort: 2000, DstPort: 80, DstMAC: gwMAC,
	})
	tr, err := d.Inject(2, pkt)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  NAT path: %s, out src=%s\n", tr.Path(), tr.Out[0].Pkt.IPv4.Src)

	// --- Failure handling: a loopback port dies. -----------------------
	fmt.Println("\n=== failure: loopback port 20 goes down ===")
	// The port's admin state goes down on the switch; one reconcile
	// round reads it and re-budgets (0: no offered-load check).
	before := d.LoopbackGbps()
	must(d.Switch.SetPortAdminState(20, false))
	rep, err := d.Reconcile(0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  lost %.0f Gbps of recirculation bandwidth\n", before-d.LoopbackGbps())
	fmt.Printf("  remaining loopback: %.0f Gbps\n", d.LoopbackGbps())
	sustainable := d.Capacity.ExternalGbps() // no chain recirculates
	if k := d.WeightedRecirculations(); k > 0 {
		sustainable = d.LoopbackGbps() / k
	}
	fmt.Printf("  sustainable offered load: %.0f Gbps\n", sustainable)
	if len(rep.Repointed) > 0 {
		fmt.Printf("  chains re-pointed: %v\n", rep.Repointed)
	}
	// Traffic continues to flow.
	tr, err = d.Inject(2, dejavu.NewUDP(dejavu.UDPOpts{
		Src: client, Dst: dejavu.IP4{8, 8, 8, 8}, SrcPort: 9, DstPort: 53, DstMAC: gwMAC,
	}))
	if err != nil || tr.Dropped {
		log.Fatalf("traffic broken after failure: %v", err)
	}
	fmt.Println("  traffic still flowing after failure")

	// --- Retirement: remove the NAT chain again. -----------------------
	fmt.Println("\n=== retire chain 40 ===")
	if err := d.RemoveChain(40); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  %d chains remain; NAT placed: %v\n", len(d.Chains), placed(d, "nat"))

	// --- Emit the composed program. ------------------------------------
	src, err := d.P4Source()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n=== composed P4 program: %d lines ===\n", strings.Count(src, "\n"))
	for _, line := range strings.SplitN(src, "\n", 12)[:11] {
		fmt.Println(" ", line)
	}
	fmt.Println("  ...")
}

func placed(d *dejavu.Deployment, name string) bool {
	_, ok := d.Placement.Of(name)
	return ok
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
