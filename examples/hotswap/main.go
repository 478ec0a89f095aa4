// Hot swap: the staged incremental build pipeline in action. The §5
// edge-cloud deployment (three chains, five NFs) goes live, traffic
// flows, and then a fourth chain is hot-added over the already-placed
// NFs — the rebuild serves the parser-merge and placement stages from
// the deployment's artifact cache, reloads zero pipelet programs, and
// pushes only the branching-table entry delta through a transactional
// program swap while the data plane keeps forwarding.
package main

import (
	"fmt"
	"log"

	"dejavu"
)

var (
	vip        = dejavu.IP4{203, 0, 113, 80}
	backends   = []dejavu.IP4{{10, 0, 1, 1}, {10, 0, 1, 2}}
	tenantNet  = dejavu.IP4{10, 0, 2, 0}
	tenantHost = dejavu.IP4{10, 0, 2, 5}
	localVTEP  = dejavu.IP4{172, 16, 0, 1}
	remoteVTEP = dejavu.IP4{172, 16, 0, 9}
	gwMAC      = dejavu.MAC{0x02, 0xDE, 0x1A, 0, 0, 1}
	wlMAC      = dejavu.MAC{0x02, 0xDE, 0x1A, 0, 0, 5}
	upMAC      = dejavu.MAC{0x02, 0xDE, 0x1A, 0, 0, 0xFE}
	client     = dejavu.IP4{198, 51, 100, 10}
)

const (
	pathFull    = 10 // classifier-fw-vgw-lb-router
	pathMedium  = 20 // classifier-vgw-router
	pathBasic   = 30 // classifier-router
	pathGuarded = 40 // classifier-fw-vgw-router, hot-added below
	tenantVNI   = 5001
	tenantID    = 42
)

func buildNFs() dejavu.NFs {
	classifier := dejavu.NewClassifier(pathBasic, 2)
	must(classifier.AddRule(dejavu.ClassRule{
		DstIP: vip, DstMask: dejavu.IP4{255, 255, 255, 255},
		Proto: 6, ProtoMask: 0xFF, Priority: 20,
		Path: pathFull, InitialIndex: 5, Tenant: tenantID,
	}))
	must(classifier.AddRule(dejavu.ClassRule{
		DstIP: tenantNet, DstMask: dejavu.IP4{255, 255, 255, 0},
		Priority: 10, Path: pathMedium, InitialIndex: 3, Tenant: tenantID,
	}))

	fw := dejavu.NewFirewall(true)
	must(fw.AddRule(dejavu.ACLRule{
		DstIP: vip, DstMask: dejavu.IP4{255, 255, 255, 255},
		Proto: 6, ProtoMask: 0xFF, DstPort: 443, Priority: 20, Permit: true,
	}))
	must(fw.AddRule(dejavu.ACLRule{
		DstIP: vip, DstMask: dejavu.IP4{255, 255, 255, 255},
		Priority: 10, Permit: false,
	}))

	vgw := dejavu.NewVGW(localVTEP, gwMAC)
	must(vgw.AddVNI(tenantVNI, tenantID))
	must(vgw.AddEncapRoute(tenantHost, dejavu.EncapEntry{VNI: tenantVNI, RemoteIP: remoteVTEP, NextMAC: wlMAC}))

	lb := dejavu.NewLoadBalancer(65536)
	must(lb.AddVIP(vip, backends))

	router := dejavu.NewRouter()
	must(router.AddRoute(dejavu.IP4{10, 0, 0, 0}, 16, dejavu.NextHop{Port: 8, DstMAC: wlMAC, SrcMAC: gwMAC}))
	must(router.AddRoute(dejavu.IP4{172, 16, 0, 0}, 16, dejavu.NextHop{Port: 9, DstMAC: wlMAC, SrcMAC: gwMAC}))
	must(router.AddRoute(dejavu.IP4{0, 0, 0, 0}, 0, dejavu.NextHop{Port: 1, DstMAC: upMAC, SrcMAC: gwMAC}))

	return dejavu.NFs{classifier, fw, vgw, lb, router}
}

func main() {
	nfs := buildNFs()
	// The Fig. 9 manual placement: with the placement pinned, a
	// same-NF chain add later hits both the parser-merge and the
	// placement stage caches.
	placement := dejavu.NewPlacement()
	placement.Assign("classifier", dejavu.PipeletID{Pipeline: 0, Dir: dejavu.Ingress})
	placement.Assign("fw", dejavu.PipeletID{Pipeline: 1, Dir: dejavu.Egress})
	placement.Assign("vgw", dejavu.PipeletID{Pipeline: 1, Dir: dejavu.Egress})
	placement.Assign("lb", dejavu.PipeletID{Pipeline: 1, Dir: dejavu.Ingress})
	placement.Assign("router", dejavu.PipeletID{Pipeline: 1, Dir: dejavu.Ingress})
	d, err := dejavu.Deploy(dejavu.Config{
		Prof: dejavu.Wedge100B(),
		Chains: []dejavu.Chain{
			{PathID: pathFull, NFs: []string{"classifier", "fw", "vgw", "lb", "router"}, Weight: 0.5, ExitPipeline: 0},
			{PathID: pathMedium, NFs: []string{"classifier", "vgw", "router"}, Weight: 0.3, ExitPipeline: 0},
			{PathID: pathBasic, NFs: []string{"classifier", "router"}, Weight: 0.2, ExitPipeline: 0},
		},
		NFs:       nfs,
		Placement: placement,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("=== initial deployment (cold cache) ===")
	fmt.Print(d.LastBuild.Summary())

	// Traffic before the swap.
	pkt := dejavu.NewUDP(dejavu.UDPOpts{Src: client, Dst: dejavu.IP4{8, 8, 8, 8}, SrcPort: 40001, DstPort: 53, DstMAC: gwMAC})
	tr, err := d.Inject(2, pkt)
	if err != nil || tr.Dropped {
		log.Fatalf("pre-swap traffic broken: %v %v", err, tr)
	}
	fmt.Printf("\npre-swap basic-path packet: delivered, recircs=%d\n", tr.Recirculations)

	// Hot-add a fourth chain over the already-placed NFs. The staged
	// pipeline serves parser-merge and placement from cache, reuses
	// every behavioural program, and the swap pushes only the new
	// path's branching entries.
	fmt.Println("\n=== hot-add: classifier → fw → vgw → router (path 40) ===")
	if err := d.AddChain(dejavu.Chain{
		PathID: pathGuarded, NFs: []string{"classifier", "fw", "vgw", "router"},
		Weight: 0.1, ExitPipeline: 0,
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Print(d.LastBuild.Summary())

	adds, dels, mods := 0, 0, 0
	for _, op := range d.LastDelta {
		switch op.Op.String() {
		case "add":
			adds++
		case "del":
			dels++
		default:
			mods++
		}
	}
	fmt.Printf("\nbranching delta applied: %d ops (%d add, %d del, %d mod)\n",
		len(d.LastDelta), adds, dels, mods)
	for _, op := range d.LastDelta {
		fmt.Printf("  %s\n", op)
	}
	fmt.Printf("rebuild telemetry: builds=%d swaps=%d cache hit rate=%.0f%%\n",
		d.Control.Builds(), d.Control.Swaps(), 100*d.Control.CacheHitRate())

	// Steer tenant web traffic onto the new path and prove it flows.
	classifier := nfs.ByName("classifier").(*dejavu.Classifier)
	must(classifier.AddRule(dejavu.ClassRule{
		DstIP: tenantHost, DstMask: dejavu.IP4{255, 255, 255, 255},
		Proto: 6, ProtoMask: 0xFF, Priority: 30,
		Path: pathGuarded, InitialIndex: 4, Tenant: tenantID,
	}))
	pkt = dejavu.NewTCP(dejavu.TCPOpts{Src: client, Dst: tenantHost, SrcPort: 40002, DstPort: 443, DstMAC: gwMAC})
	tr, err = d.Inject(2, pkt)
	if err != nil || tr.Dropped {
		log.Fatalf("new-path traffic broken: %v %+v", err, tr)
	}
	fmt.Printf("\nnew-path packet: delivered via %s\n", tr.Path())

	// The old paths never noticed.
	pkt = dejavu.NewUDP(dejavu.UDPOpts{Src: client, Dst: dejavu.IP4{8, 8, 8, 8}, SrcPort: 40003, DstPort: 53, DstMAC: gwMAC})
	tr, err = d.Inject(2, pkt)
	if err != nil || tr.Dropped {
		log.Fatalf("old path broken after swap: %v %+v", err, tr)
	}
	fmt.Printf("post-swap basic-path packet: delivered, recircs=%d\n", tr.Recirculations)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
