// Package scenario builds the paper's §5 validation scenario: the
// production edge-cloud service chain of Fig. 2 (Classifier, Firewall,
// Virtualization Gateway, L4 Load Balancer, IP Router) with its three
// SFC paths, deployed on a Wedge-100B-class switch profile with the
// Fig. 9 placement (ingress pipe 1 loopback-only, all traffic
// recirculating exactly once).
package scenario

import (
	"fmt"

	"dejavu/internal/asic"
	"dejavu/internal/nf"
	"dejavu/internal/packet"
	"dejavu/internal/route"
)

// Path IDs of the three SFC policies in Fig. 2.
const (
	PathFull   uint16 = 10 // red: Classifier-FW-VGW-LB-Router
	PathMedium uint16 = 20 // orange: Classifier-VGW-Router
	PathBasic  uint16 = 30 // green: Classifier-Router
)

// Well-known addresses of the scenario.
var (
	VIP         = packet.IP4{203, 0, 113, 80} // load-balanced service
	Backend1    = packet.IP4{10, 0, 1, 1}
	Backend2    = packet.IP4{10, 0, 1, 2}
	TenantNet   = packet.IP4{10, 0, 2, 0} // 10.0.2.0/24, VXLAN-attached
	TenantHost  = packet.IP4{10, 0, 2, 5}
	LocalVTEP   = packet.IP4{172, 16, 0, 1}
	RemoteVTEP  = packet.IP4{172, 16, 0, 9}
	GatewayMAC  = packet.MAC{0x02, 0xDE, 0x1A, 0x00, 0x00, 0x01}
	WorkloadMAC = packet.MAC{0x02, 0xDE, 0x1A, 0x00, 0x00, 0x05}
	UpstreamMAC = packet.MAC{0x02, 0xDE, 0x1A, 0x00, 0x00, 0xFE}
	ClientIP    = packet.IP4{198, 51, 100, 10}
	ClientMAC   = packet.MAC{0x02, 0xC1, 0x1E, 0x00, 0x00, 0x01}
	TenantVNI   = uint32(5001)
	TenantID    = uint16(42)
)

// Ports of the scenario (pipeline 0 = ports 0..15 on Wedge-100B).
const (
	PortClient   asic.PortID = 2 // external traffic enters here
	PortBackends asic.PortID = 8 // toward 10.0.0.0/16
	PortVTEP     asic.PortID = 9 // toward 172.16.0.0/16
	PortUpstream asic.PortID = 1 // default route
)

// Scenario bundles everything the examples, tests and benchmarks need.
type Scenario struct {
	Prof       asic.Profile
	NFs        nf.List
	Chains     []route.Chain
	Placement  *route.Placement
	Classifier *nf.Classifier
	Firewall   *nf.Firewall
	VGW        *nf.VGW
	LB         *nf.LoadBalancer
	Router     *nf.Router
}

// New builds the fully-configured scenario.
func New() (*Scenario, error) {
	s := &Scenario{Prof: asic.Wedge100B()}

	// Chains (Fig. 2). Weights reflect a traffic mix where the full
	// path dominates.
	s.Chains = []route.Chain{
		{PathID: PathFull, NFs: []string{"classifier", "fw", "vgw", "lb", "router"}, Weight: 0.5, ExitPipeline: 0},
		{PathID: PathMedium, NFs: []string{"classifier", "vgw", "router"}, Weight: 0.3, ExitPipeline: 0},
		{PathID: PathBasic, NFs: []string{"classifier", "router"}, Weight: 0.2, ExitPipeline: 0},
	}

	// Classifier: VIP traffic takes the full path; tenant-prefix
	// traffic takes the medium path; everything else the basic path.
	s.Classifier = nf.NewClassifier(PathBasic, 2)
	if err := s.Classifier.AddRule(nf.ClassRule{
		DstIP: VIP, DstMask: packet.IP4{255, 255, 255, 255},
		Proto: packet.ProtoTCP, ProtoMask: 0xFF,
		Priority: 20,
		Path:     PathFull, InitialIndex: 5, Tenant: TenantID,
	}); err != nil {
		return nil, err
	}
	if err := s.Classifier.AddRule(nf.ClassRule{
		DstIP: TenantNet, DstMask: packet.IP4{255, 255, 255, 0},
		Priority: 10,
		Path:     PathMedium, InitialIndex: 3, Tenant: TenantID,
	}); err != nil {
		return nil, err
	}

	// Firewall: permit TCP to the VIP on 443, deny the rest of the VIP,
	// permit everything else.
	s.Firewall = nf.NewFirewall(true)
	if err := s.Firewall.AddRule(nf.ACLRule{
		DstIP: VIP, DstMask: packet.IP4{255, 255, 255, 255},
		Proto: packet.ProtoTCP, ProtoMask: 0xFF,
		DstPort:  443,
		Priority: 20, Permit: true,
	}); err != nil {
		return nil, err
	}
	if err := s.Firewall.AddRule(nf.ACLRule{
		DstIP: VIP, DstMask: packet.IP4{255, 255, 255, 255},
		Priority: 10, Permit: false,
	}); err != nil {
		return nil, err
	}

	// VGW: authorize the tenant VNI and encapsulate traffic to the
	// tenant prefix toward its VTEP.
	s.VGW = nf.NewVGW(LocalVTEP, GatewayMAC)
	if err := s.VGW.AddVNI(TenantVNI, TenantID); err != nil {
		return nil, err
	}
	if err := s.VGW.AddEncapRoute(TenantHost, nf.EncapEntry{VNI: TenantVNI, RemoteIP: RemoteVTEP, NextMAC: WorkloadMAC}); err != nil {
		return nil, err
	}

	// LB: one VIP with two backends.
	s.LB = nf.NewLoadBalancer(65536)
	if err := s.LB.AddVIP(VIP, []packet.IP4{Backend1, Backend2}); err != nil {
		return nil, err
	}

	// Router: backends, VTEP network, default.
	s.Router = nf.NewRouter()
	if err := s.Router.AddRoute(packet.IP4{10, 0, 0, 0}, 16, nf.NextHop{Port: uint16(PortBackends), DstMAC: WorkloadMAC, SrcMAC: GatewayMAC}); err != nil {
		return nil, err
	}
	if err := s.Router.AddRoute(packet.IP4{172, 16, 0, 0}, 16, nf.NextHop{Port: uint16(PortVTEP), DstMAC: WorkloadMAC, SrcMAC: GatewayMAC}); err != nil {
		return nil, err
	}
	if err := s.Router.AddRoute(packet.IP4{0, 0, 0, 0}, 0, nf.NextHop{Port: uint16(PortUpstream), DstMAC: UpstreamMAC, SrcMAC: GatewayMAC}); err != nil {
		return nil, err
	}

	s.NFs = nf.List{s.Classifier, s.Firewall, s.VGW, s.LB, s.Router}

	// Placement in the spirit of Fig. 9: the classifier faces external
	// traffic on ingress 0; FW and VGW share egress 1 sequentially; LB
	// and Router share ingress 1 sequentially. Ingress pipe 1 is
	// reached only via loopback, so every packet recirculates exactly
	// once — matching the §5 configuration where the switch offers
	// 1.6 Tbps with one free recirculation.
	p := route.NewPlacement()
	p.Assign("classifier", asic.PipeletID{Pipeline: 0, Dir: asic.Ingress})
	p.Assign("fw", asic.PipeletID{Pipeline: 1, Dir: asic.Egress})
	p.Assign("vgw", asic.PipeletID{Pipeline: 1, Dir: asic.Egress})
	p.Assign("lb", asic.PipeletID{Pipeline: 1, Dir: asic.Ingress})
	p.Assign("router", asic.PipeletID{Pipeline: 1, Dir: asic.Ingress})
	s.Placement = p

	if err := p.Validate(s.Prof, s.Chains); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return s, nil
}

// MustNew panics on error; for tests and examples.
func MustNew() *Scenario {
	s, err := New()
	if err != nil {
		panic(err)
	}
	return s
}

// ClientTCP builds a client packet to the VIP (full path).
func ClientTCP(dstPort uint16) *packet.Parsed {
	return packet.NewTCP(packet.TCPOpts{
		SrcMAC: ClientMAC, DstMAC: GatewayMAC,
		Src: ClientIP, Dst: VIP,
		SrcPort: 33000, DstPort: dstPort,
	})
}

// TenantBound builds a client packet to the tenant host (medium path).
func TenantBound() *packet.Parsed {
	return packet.NewTCP(packet.TCPOpts{
		SrcMAC: ClientMAC, DstMAC: GatewayMAC,
		Src: ClientIP, Dst: TenantHost,
		SrcPort: 33001, DstPort: 8080,
	})
}

// InternetBound builds a client packet to an external address (basic
// path).
func InternetBound() *packet.Parsed {
	return packet.NewUDP(packet.UDPOpts{
		SrcMAC: ClientMAC, DstMAC: GatewayMAC,
		Src: ClientIP, Dst: packet.IP4{8, 8, 8, 8},
		SrcPort: 33002, DstPort: 53,
	})
}
