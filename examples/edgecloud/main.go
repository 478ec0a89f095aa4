// Edge cloud: the paper's §5 production scenario — five NFs
// (Classifier, Firewall, Virtualization Gateway, L4 Load Balancer, IP
// Router) serving three SFC paths on one Wedge-100B-class switch, with
// 16 ports in loopback mode for 1.6 Tbps of once-recirculating
// capacity.
//
// The example builds everything through the public API, deploys with
// the placement optimizer, validates all three paths functionally, and
// prints the §4/§5 capacity analysis.
package main

import (
	"fmt"
	"log"

	"dejavu"
)

// Addressing plan.
var (
	vip        = dejavu.IP4{203, 0, 113, 80}
	backends   = []dejavu.IP4{{10, 0, 1, 1}, {10, 0, 1, 2}, {10, 0, 1, 3}}
	tenantNet  = dejavu.IP4{10, 0, 2, 0}
	tenantHost = dejavu.IP4{10, 0, 2, 5}
	localVTEP  = dejavu.IP4{172, 16, 0, 1}
	remoteVTEP = dejavu.IP4{172, 16, 0, 9}
	gwMAC      = dejavu.MAC{0x02, 0xDE, 0x1A, 0, 0, 1}
	wlMAC      = dejavu.MAC{0x02, 0xDE, 0x1A, 0, 0, 5}
	upMAC      = dejavu.MAC{0x02, 0xDE, 0x1A, 0, 0, 0xFE}
)

const (
	pathFull   = 10 // classifier-fw-vgw-lb-router
	pathMedium = 20 // classifier-vgw-router
	pathBasic  = 30 // classifier-router
	tenantVNI  = 5001
	tenantID   = 42
)

func buildNFs() dejavu.NFs {
	classifier := dejavu.NewClassifier(pathBasic, 2)
	must(classifier.AddRule(dejavu.ClassRule{
		DstIP: vip, DstMask: dejavu.IP4{255, 255, 255, 255},
		Proto: 6, ProtoMask: 0xFF,
		Priority: 20,
		Path:     pathFull, InitialIndex: 5, Tenant: tenantID,
	}))
	must(classifier.AddRule(dejavu.ClassRule{
		DstIP: tenantNet, DstMask: dejavu.IP4{255, 255, 255, 0},
		Priority: 10,
		Path:     pathMedium, InitialIndex: 3, Tenant: tenantID,
	}))

	fw := dejavu.NewFirewall(true)
	must(fw.AddRule(dejavu.ACLRule{ // only HTTPS may reach the VIP
		DstIP: vip, DstMask: dejavu.IP4{255, 255, 255, 255},
		Proto: 6, ProtoMask: 0xFF, DstPort: 443,
		Priority: 20, Permit: true,
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
	chains := []dejavu.Chain{
		{PathID: pathFull, NFs: []string{"classifier", "fw", "vgw", "lb", "router"}, Weight: 0.5, ExitPipeline: 0},
		{PathID: pathMedium, NFs: []string{"classifier", "vgw", "router"}, Weight: 0.3, ExitPipeline: 0},
		{PathID: pathBasic, NFs: []string{"classifier", "router"}, Weight: 0.2, ExitPipeline: 0},
	}

	// §5 loopback budget: the 16 ports of pipeline 1.
	var loopback []dejavu.PortID
	for p := 16; p < 32; p++ {
		loopback = append(loopback, dejavu.PortID(p))
	}

	d, err := dejavu.Deploy(dejavu.Config{
		Prof:          dejavu.Wedge100B(),
		Chains:        chains,
		NFs:           buildNFs(),
		Optimizer:     dejavu.OptExhaustive,
		LoopbackPorts: loopback,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(d.Summary())

	// Drive all three SFC paths.
	client := dejavu.IP4{198, 51, 100, 10}
	sends := []struct {
		name string
		pkt  *dejavu.Packet
	}{
		{"full path (VIP:443)", dejavu.NewTCP(dejavu.TCPOpts{Src: client, Dst: vip, SrcPort: 40001, DstPort: 443, DstMAC: gwMAC})},
		{"full path again (session hit)", dejavu.NewTCP(dejavu.TCPOpts{Src: client, Dst: vip, SrcPort: 40001, DstPort: 443, DstMAC: gwMAC})},
		{"firewall deny (VIP:22)", dejavu.NewTCP(dejavu.TCPOpts{Src: client, Dst: vip, SrcPort: 40002, DstPort: 22, DstMAC: gwMAC})},
		{"medium path (tenant host)", dejavu.NewTCP(dejavu.TCPOpts{Src: client, Dst: tenantHost, SrcPort: 40003, DstPort: 8080, DstMAC: gwMAC})},
		{"basic path (internet)", dejavu.NewUDP(dejavu.UDPOpts{Src: client, Dst: dejavu.IP4{8, 8, 8, 8}, SrcPort: 40004, DstPort: 53, DstMAC: gwMAC})},
	}
	fmt.Println("\ntraffic:")
	for _, s := range sends {
		tr, err := d.Inject(2, s.pkt)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "delivered"
		if tr.Dropped {
			verdict = "DROPPED (" + tr.DropReason + ")"
		}
		fmt.Printf("  %-30s %-28s recircs=%d latency=%v\n", s.name, verdict, tr.Recirculations, tr.Latency)
		for _, o := range tr.Out {
			fmt.Printf("    port %-3d %s\n", o.Port, o.Pkt.String())
		}
	}

	// Capacity analysis (§4/§5).
	fmt.Println("\ncapacity:")
	fmt.Printf("  external:            %6.0f Gbps\n", d.Capacity.ExternalGbps())
	fmt.Printf("  loopback:            %6.0f Gbps\n", d.LoopbackGbps())
	fmt.Printf("  weighted recircs:    %6.2f\n", d.WeightedRecirculations())
	fmt.Printf("  effective @ 1.6T:    %6.0f Gbps\n", d.EffectiveThroughputGbps(1600))
	fmt.Printf("  one recirc latency:  %v extra per packet\n",
		dejavu.RecircLatency(d.Config.Prof, dejavu.LoopbackOnChip))
	fmt.Printf("\ncontrol plane: %+v\n", d.Controller.Stats())
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
