// Package config holds the sections of an intent document that
// describe one deployment — switch profile, service chains, per-NF state
// (classifier rules, firewall ACLs, VIPs, routes, tunnels), loopback
// budget and optimizer choice — and their builder, which turns them into
// a ready-to-deploy core.Config. The document itself, its parser and its
// validation live in internal/intent, which embeds File.
package config

import (
	"fmt"
	"net/netip"
	"slices"

	"dejavu/internal/asic"
	"dejavu/internal/core"
	"dejavu/internal/nf"
	"dejavu/internal/packet"
	"dejavu/internal/route"
)

// File is the deployment half of an intent document.
type File struct {
	// Profile selects the switch model: "wedge100b" (default) or
	// "tofino4".
	Profile string `json:"profile"`
	// Optimizer: "exhaustive" (default), "anneal", "greedy", "naive".
	Optimizer string `json:"optimizer"`
	// Enter is the pipeline receiving external traffic.
	Enter int `json:"enter"`
	// LoopbackPorts lists front-panel ports to put in loopback mode.
	LoopbackPorts []int `json:"loopback_ports"`
	// StrictLint gates deployment on the static verifier: composing
	// refuses configurations with error-severity lint findings.
	StrictLint bool `json:"strict_lint,omitempty"`
	// Telemetry attaches the dvtel datapath counter set to the switch
	// (see docs/OBSERVABILITY.md).
	Telemetry bool `json:"telemetry,omitempty"`
	// Postcards enables in-band per-hop postcard telemetry.
	Postcards bool `json:"postcards,omitempty"`

	Chains []ChainSpec `json:"chains"`

	Classifier *ClassifierSpec `json:"classifier"`
	Firewall   *FirewallSpec   `json:"firewall"`
	VGW        *VGWSpec        `json:"vgw"`
	LB         *LBSpec         `json:"lb"`
	Router     *RouterSpec     `json:"router"`
	NAT        *NATSpec        `json:"nat"`
}

// ChainSpec declares one SFC policy.
type ChainSpec struct {
	PathID         uint16   `json:"path_id"`
	NFs            []string `json:"nfs"`
	Weight         float64  `json:"weight"`
	ExitPipeline   int      `json:"exit_pipeline"`
	StaticExitPort int      `json:"static_exit_port,omitempty"`
}

// Route returns the chain in routing-layer form.
func (c ChainSpec) Route() route.Chain {
	return route.Chain{
		PathID:         c.PathID,
		NFs:            c.NFs,
		Weight:         c.Weight,
		ExitPipeline:   c.ExitPipeline,
		StaticExitPort: asic.PortID(c.StaticExitPort),
	}
}

// ClassifierSpec configures the chain-entry classifier.
type ClassifierSpec struct {
	DefaultPath  uint16     `json:"default_path"`
	DefaultIndex uint8      `json:"default_index"`
	Rules        []ClassMap `json:"rules"`
}

// ClassMap is one classification rule; Src/Dst are CIDR prefixes.
type ClassMap struct {
	Src          string `json:"src,omitempty"`
	Dst          string `json:"dst,omitempty"`
	Proto        string `json:"proto,omitempty"` // "tcp" | "udp" | "icmp"
	SrcPort      uint16 `json:"src_port,omitempty"`
	DstPort      uint16 `json:"dst_port,omitempty"`
	Priority     int    `json:"priority"`
	Path         uint16 `json:"path"`
	InitialIndex uint8  `json:"initial_index"`
	Tenant       uint16 `json:"tenant,omitempty"`
}

// FirewallSpec configures the packet filter.
type FirewallSpec struct {
	DefaultPermit bool      `json:"default_permit"`
	Rules         []ACLRule `json:"rules"`
}

// ACLRule is one firewall rule.
type ACLRule struct {
	Src      string `json:"src,omitempty"`
	Dst      string `json:"dst,omitempty"`
	Proto    string `json:"proto,omitempty"`
	SrcPort  uint16 `json:"src_port,omitempty"`
	DstPort  uint16 `json:"dst_port,omitempty"`
	Priority int    `json:"priority"`
	Permit   bool   `json:"permit"`
}

// VGWSpec configures the virtualization gateway.
type VGWSpec struct {
	LocalVTEP string      `json:"local_vtep"`
	LocalMAC  string      `json:"local_mac"`
	VNIs      []VNIEntry  `json:"vnis"`
	Encap     []EncapRule `json:"encap"`
}

// VNIEntry authorizes one VNI.
type VNIEntry struct {
	VNI    uint32 `json:"vni"`
	Tenant uint16 `json:"tenant"`
}

// EncapRule steers an inner IP into a tunnel.
type EncapRule struct {
	InnerDst string `json:"inner_dst"`
	VNI      uint32 `json:"vni"`
	Remote   string `json:"remote"`
	NextMAC  string `json:"next_mac"`
}

// LBSpec configures the load balancer.
type LBSpec struct {
	SessionCapacity int       `json:"session_capacity"`
	VIPs            []VIPSpec `json:"vips"`
}

// VIPSpec is one virtual service.
type VIPSpec struct {
	VIP      string   `json:"vip"`
	Backends []string `json:"backends"`
}

// RouterSpec configures the IP router.
type RouterSpec struct {
	Routes []RouteSpec `json:"routes"`
}

// RouteSpec is one prefix route.
type RouteSpec struct {
	Prefix string `json:"prefix"`
	Port   uint16 `json:"port"`
	DstMAC string `json:"dst_mac,omitempty"`
	SrcMAC string `json:"src_mac,omitempty"`
}

// NATSpec configures the source NAT.
type NATSpec struct {
	PublicIP        string `json:"public_ip"`
	SessionCapacity int    `json:"session_capacity"`
}

// Clone deep-copies the document: the copy shares no slice and no NF
// section with the original, and a nil slice or section stays nil, an
// empty one empty — the copy renders to the same JSON.
func (f *File) Clone() File {
	c := *f
	c.LoopbackPorts = slices.Clone(f.LoopbackPorts)
	c.Chains = slices.Clone(f.Chains)
	for i := range c.Chains {
		c.Chains[i].NFs = slices.Clone(c.Chains[i].NFs)
	}
	if f.Classifier != nil {
		s := *f.Classifier
		s.Rules = slices.Clone(s.Rules)
		c.Classifier = &s
	}
	if f.Firewall != nil {
		s := *f.Firewall
		s.Rules = slices.Clone(s.Rules)
		c.Firewall = &s
	}
	if f.VGW != nil {
		s := *f.VGW
		s.VNIs = slices.Clone(s.VNIs)
		s.Encap = slices.Clone(s.Encap)
		c.VGW = &s
	}
	if f.LB != nil {
		s := *f.LB
		s.VIPs = slices.Clone(s.VIPs)
		for i := range s.VIPs {
			s.VIPs[i].Backends = slices.Clone(s.VIPs[i].Backends)
		}
		c.LB = &s
	}
	if f.Router != nil {
		s := *f.Router
		s.Routes = slices.Clone(s.Routes)
		c.Router = &s
	}
	if f.NAT != nil {
		s := *f.NAT
		c.NAT = &s
	}
	return c
}

// parseIP4 parses a dotted-quad address.
func parseIP4(s string) (packet.IP4, error) {
	a, err := netip.ParseAddr(s)
	if err != nil || !a.Is4() {
		return packet.IP4{}, fmt.Errorf("config: bad IPv4 address %q", s)
	}
	return packet.IP4(a.As4()), nil
}

// parseCIDR parses "a.b.c.d/len" into address + mask; an empty string
// is a full wildcard.
func parseCIDR(s string) (addr, mask packet.IP4, err error) {
	if s == "" {
		return packet.IP4{}, packet.IP4{}, nil
	}
	p, err := netip.ParsePrefix(s)
	if err != nil || !p.Addr().Is4() {
		return addr, mask, fmt.Errorf("config: bad IPv4 prefix %q", s)
	}
	addr = packet.IP4(p.Addr().As4())
	bits := p.Bits()
	m := ^uint32(0) << (32 - bits)
	if bits == 0 {
		m = 0
	}
	mask = packet.IP4FromUint32(m)
	return addr, mask, nil
}

// parsePrefix parses a CIDR into address + prefix length for LPM
// routes.
func parsePrefix(s string) (packet.IP4, int, error) {
	p, err := netip.ParsePrefix(s)
	if err != nil || !p.Addr().Is4() {
		return packet.IP4{}, 0, fmt.Errorf("config: bad IPv4 prefix %q", s)
	}
	return packet.IP4(p.Addr().As4()), p.Bits(), nil
}

// parseMAC parses "aa:bb:cc:dd:ee:ff"; empty is the zero MAC.
func parseMAC(s string) (packet.MAC, error) {
	var m packet.MAC
	if s == "" {
		return m, nil
	}
	var b [6]int
	n, err := fmt.Sscanf(s, "%02x:%02x:%02x:%02x:%02x:%02x",
		&b[0], &b[1], &b[2], &b[3], &b[4], &b[5])
	if err != nil || n != 6 {
		return m, fmt.Errorf("config: bad MAC %q", s)
	}
	for i, v := range b {
		m[i] = byte(v)
	}
	return m, nil
}

// parseProto maps protocol names to numbers; empty means wildcard.
func parseProto(s string) (proto, mask uint8, err error) {
	switch s {
	case "":
		return 0, 0, nil
	case "tcp":
		return packet.ProtoTCP, 0xFF, nil
	case "udp":
		return packet.ProtoUDP, 0xFF, nil
	case "icmp":
		return packet.ProtoICMP, 0xFF, nil
	default:
		return 0, 0, fmt.Errorf("config: unknown protocol %q", s)
	}
}

// ResolveOptimizer returns the placement strategy the file names; none
// means exhaustive.
func (f *File) ResolveOptimizer() (core.Optimizer, error) {
	switch f.Optimizer {
	case "":
		return core.OptExhaustive, nil
	case "exhaustive", "anneal", "greedy", "naive":
		return core.Optimizer(f.Optimizer), nil
	default:
		return "", fmt.Errorf("config: unknown optimizer %q", f.Optimizer)
	}
}

// Build materializes the NFs and the core configuration.
func (f *File) Build() (*core.Config, error) {
	cfg := &core.Config{Enter: f.Enter, StrictLint: f.StrictLint, Telemetry: f.Telemetry, Postcards: f.Postcards}

	switch f.Profile {
	case "", "wedge100b":
		cfg.Prof = asic.Wedge100B()
	case "tofino4":
		cfg.Prof = asic.Tofino4()
	default:
		return nil, fmt.Errorf("config: unknown profile %q", f.Profile)
	}
	var err error
	if cfg.Optimizer, err = f.ResolveOptimizer(); err != nil {
		return nil, err
	}
	for _, p := range f.LoopbackPorts {
		cfg.LoopbackPorts = append(cfg.LoopbackPorts, asic.PortID(p))
	}

	if len(f.Chains) == 0 {
		return nil, fmt.Errorf("config: no chains declared")
	}
	for _, c := range f.Chains {
		chain := c.Route()
		if err := chain.Validate(); err != nil {
			return nil, err
		}
		cfg.Chains = append(cfg.Chains, chain)
	}

	if f.Classifier != nil {
		cl := nf.NewClassifier(f.Classifier.DefaultPath, f.Classifier.DefaultIndex)
		for _, r := range f.Classifier.Rules {
			src, srcMask, err := parseCIDR(r.Src)
			if err != nil {
				return nil, err
			}
			dst, dstMask, err := parseCIDR(r.Dst)
			if err != nil {
				return nil, err
			}
			proto, protoMask, err := parseProto(r.Proto)
			if err != nil {
				return nil, err
			}
			if err := cl.AddRule(nf.ClassRule{
				SrcIP: src, SrcMask: srcMask,
				DstIP: dst, DstMask: dstMask,
				Proto: proto, ProtoMask: protoMask,
				SrcPort: r.SrcPort, DstPort: r.DstPort,
				Priority: r.Priority,
				Path:     r.Path, InitialIndex: r.InitialIndex, Tenant: r.Tenant,
			}); err != nil {
				return nil, err
			}
		}
		cfg.NFs = append(cfg.NFs, cl)
	}

	if f.Firewall != nil {
		fw := nf.NewFirewall(f.Firewall.DefaultPermit)
		for _, r := range f.Firewall.Rules {
			src, srcMask, err := parseCIDR(r.Src)
			if err != nil {
				return nil, err
			}
			dst, dstMask, err := parseCIDR(r.Dst)
			if err != nil {
				return nil, err
			}
			proto, protoMask, err := parseProto(r.Proto)
			if err != nil {
				return nil, err
			}
			if err := fw.AddRule(nf.ACLRule{
				SrcIP: src, SrcMask: srcMask,
				DstIP: dst, DstMask: dstMask,
				Proto: proto, ProtoMask: protoMask,
				SrcPort: r.SrcPort, DstPort: r.DstPort,
				Priority: r.Priority, Permit: r.Permit,
			}); err != nil {
				return nil, err
			}
		}
		cfg.NFs = append(cfg.NFs, fw)
	}

	if f.VGW != nil {
		vtep, err := parseIP4(f.VGW.LocalVTEP)
		if err != nil {
			return nil, err
		}
		mac, err := parseMAC(f.VGW.LocalMAC)
		if err != nil {
			return nil, err
		}
		v := nf.NewVGW(vtep, mac)
		for _, e := range f.VGW.VNIs {
			if err := v.AddVNI(e.VNI, e.Tenant); err != nil {
				return nil, err
			}
		}
		for _, e := range f.VGW.Encap {
			inner, err := parseIP4(e.InnerDst)
			if err != nil {
				return nil, err
			}
			remote, err := parseIP4(e.Remote)
			if err != nil {
				return nil, err
			}
			nm, err := parseMAC(e.NextMAC)
			if err != nil {
				return nil, err
			}
			if err := v.AddEncapRoute(inner, nf.EncapEntry{VNI: e.VNI, RemoteIP: remote, NextMAC: nm}); err != nil {
				return nil, err
			}
		}
		cfg.NFs = append(cfg.NFs, v)
	}

	if f.LB != nil {
		capacity := f.LB.SessionCapacity
		if capacity == 0 {
			capacity = 65536
		}
		lb := nf.NewLoadBalancer(capacity)
		for _, v := range f.LB.VIPs {
			vip, err := parseIP4(v.VIP)
			if err != nil {
				return nil, err
			}
			var backends []packet.IP4
			for _, b := range v.Backends {
				ip, err := parseIP4(b)
				if err != nil {
					return nil, err
				}
				backends = append(backends, ip)
			}
			if err := lb.AddVIP(vip, backends); err != nil {
				return nil, err
			}
		}
		cfg.NFs = append(cfg.NFs, lb)
	}

	if f.Router != nil {
		r := nf.NewRouter()
		for _, rt := range f.Router.Routes {
			prefix, plen, err := parsePrefix(rt.Prefix)
			if err != nil {
				return nil, err
			}
			dstMAC, err := parseMAC(rt.DstMAC)
			if err != nil {
				return nil, err
			}
			srcMAC, err := parseMAC(rt.SrcMAC)
			if err != nil {
				return nil, err
			}
			if err := r.AddRoute(prefix, plen, nf.NextHop{Port: rt.Port, DstMAC: dstMAC, SrcMAC: srcMAC}); err != nil {
				return nil, err
			}
		}
		cfg.NFs = append(cfg.NFs, r)
	}

	if f.NAT != nil {
		pub, err := parseIP4(f.NAT.PublicIP)
		if err != nil {
			return nil, err
		}
		capacity := f.NAT.SessionCapacity
		if capacity == 0 {
			capacity = 65536
		}
		cfg.NFs = append(cfg.NFs, nf.NewNAT(pub, capacity))
	}

	// Every chain NF must have an implementation.
	for _, c := range cfg.Chains {
		for _, n := range c.NFs {
			if cfg.NFs.ByName(n) == nil {
				return nil, fmt.Errorf("config: chain %d references NF %q with no configuration section", c.PathID, n)
			}
		}
	}
	return cfg, nil
}
