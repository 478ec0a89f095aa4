package main

import (
	"bytes"
	"fmt"
	"math/rand"

	"dejavu/internal/asic"
	"dejavu/internal/packet"
	"dejavu/internal/pktgen"
	"dejavu/internal/scenario"
)

// pathKind names which SFC path (Fig. 2) a flow takes, or the bare
// forwarder that bypasses every NF.
type pathKind uint8

const (
	kindFull   pathKind = iota // path 10: Classifier-FW-VGW-LB-Router
	kindMedium                 // path 20: Classifier-VGW-Router
	kindBasic                  // path 30: Classifier-Router
	kindBare                   // synthetic forwarder, no chain
	numKinds
)

func (k pathKind) String() string {
	return [...]string{"full", "medium", "basic", "bare"}[k]
}

// pathID is the kind's service path ID (0 for the bare forwarder).
func (k pathKind) pathID() uint16 {
	return [...]uint16{scenario.PathFull, scenario.PathMedium, scenario.PathBasic, 0}[k]
}

// exitPort is the front-panel port a flow of this kind leaves through:
// the scenario's router sends full-path traffic to the backends,
// medium-path traffic to the VTEP and the rest upstream; the bare
// forwarder spreads flows over all ports by five-tuple hash.
func (k pathKind) exitPort(hash uint32) asic.PortID {
	if k == kindBare {
		return asic.PortID(hash % uint32(asic.Wedge100B().TotalPorts()))
	}
	return [...]asic.PortID{scenario.PortBackends, scenario.PortVTEP, scenario.PortUpstream}[k]
}

// flow is one generated flow: its path, the wire frame the program
// receives, the same packet as a parsed template for struct-level
// loops, the five-tuple hash the load balancer keys sessions by, and
// the front-panel port its packets must leave through.
type flow struct {
	kind  pathKind
	frame []byte
	tmpl  packet.Parsed
	hash  uint32
	exit  asic.PortID
}

// Wire sizes of the traffic mix and their 7:4:1 weights: header-only
// NFs make goodput size-dependent, so size stays a traffic dimension.
var (
	frameSizes   = [...]int{64, 576, 1500}
	frameWeights = [...]int{7, 4, 1}
)

// Header bytes ahead of the payload in an Ethernet/IPv4/TCP and an
// Ethernet/IPv4/UDP frame.
const (
	tcpHeaders = packet.EthernetLen + packet.IPv4MinLen + packet.TCPMinLen
	udpHeaders = packet.EthernetLen + packet.IPv4MinLen + packet.UDPLen
)

// pickSize draws a wire size from the 7:4:1 mix.
func pickSize(rng *rand.Rand) int {
	n := rng.Intn(frameWeights[0] + frameWeights[1] + frameWeights[2])
	for i, w := range frameWeights {
		if n < w {
			return frameSizes[i]
		}
		n -= w
	}
	return frameSizes[0]
}

// tupleGen returns the pktgen generator that draws the kind's
// five-tuples: VIP:443 over TCP for the full path, the tenant host for
// the medium path, arbitrary Internet destinations over UDP for the
// basic path (outside every prefix the classifier or router matches
// specially), and pktgen's defaults for the bare forwarder.
func tupleGen(kind pathKind, seed int64) *pktgen.Generator {
	cfg := pktgen.Config{Seed: seed, SrcMAC: scenario.ClientMAC, DstMAC: scenario.GatewayMAC}
	switch kind {
	case kindFull:
		cfg.FixedDst, cfg.DstPort, cfg.Proto = scenario.VIP, 443, packet.ProtoTCP
	case kindMedium:
		cfg.FixedDst, cfg.Proto = scenario.TenantHost, packet.ProtoTCP
	case kindBasic:
		cfg.DstNet, cfg.Proto = packet.IP4{93, 184, 0, 0}, packet.ProtoUDP
	}
	return pktgen.New(cfg)
}

// makeFlows draws n distinct flows of one kind from the seed. sizeOf
// picks each flow's wire size. Five-tuple hashes are kept distinct so
// that every full-path flow owns its own LB session.
func makeFlows(kind pathKind, n int, seed int64, sizeOf func(*rand.Rand) int) ([]flow, error) {
	gen := tupleGen(kind, seed)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	flows := make([]flow, 0, n)
	seen := make(map[uint32]bool, n)
	for len(flows) < n {
		t := gen.NextFlow().Tuple
		h := t.Hash()
		if seen[h] {
			continue
		}
		seen[h] = true
		size := sizeOf(rng)
		var p *packet.Parsed
		if t.Proto == packet.ProtoUDP {
			p = packet.NewUDP(packet.UDPOpts{
				SrcMAC: scenario.ClientMAC, DstMAC: scenario.GatewayMAC,
				Src: t.Src, Dst: t.Dst, SrcPort: t.SrcPort, DstPort: t.DstPort,
				Payload: make([]byte, size-udpHeaders),
			})
		} else {
			p = packet.NewTCP(packet.TCPOpts{
				SrcMAC: scenario.ClientMAC, DstMAC: scenario.GatewayMAC,
				Src: t.Src, Dst: t.Dst, SrcPort: t.SrcPort, DstPort: t.DstPort,
				Payload: make([]byte, size-tcpHeaders),
			})
		}
		frame, err := p.Serialize(nil)
		if err != nil {
			return nil, fmt.Errorf("serialize %s flow: %w", kind, err)
		}
		if len(frame) != size {
			return nil, fmt.Errorf("%s flow serialized to %d bytes, want %d", kind, len(frame), size)
		}
		// The template is the parse of the frame, so struct-level loops
		// inject exactly what the wire-level loops do.
		f := flow{kind: kind, frame: frame, hash: h, exit: kind.exitPort(h)}
		if err := loadFrame(&f.tmpl, frame); err != nil {
			return nil, fmt.Errorf("parse %s flow: %w", kind, err)
		}
		flows = append(flows, f)
	}
	return flows, nil
}

// chainFlows builds the chain-steady flow set: n established flows
// split 0.5/0.3/0.2 over the full/medium/basic paths (the paper's
// chain weights) with the 64/576/1500 B size mix, in a seeded order.
func chainFlows(n int, seed int64) ([]flow, error) {
	full, medium := n/2, n*3/10
	counts := [...]int{full, medium, n - full - medium}
	var flows []flow
	for k, c := range counts {
		fs, err := makeFlows(pathKind(k), c, seed*8+int64(k), pickSize)
		if err != nil {
			return nil, err
		}
		flows = append(flows, fs...)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(flows), func(i, j int) { flows[i], flows[j] = flows[j], flows[i] })
	return flows, nil
}

// bareFlows builds the bare-forward flow set: 64 B frames only, the
// size at which per-packet cost dominates.
func bareFlows(n int, seed int64) ([]flow, error) {
	return makeFlows(kindBare, n, seed, func(*rand.Rand) int { return 64 })
}

// loadFrame parses a wire frame into a slot that may have carried an
// earlier packet. The slot is zeroed first: Parsed.Parse (through
// Reset) clears only the validity mask, so a recycled slot would keep
// the previous packet's SFC.ServicePathID, compose would take it for
// already classified, and the packet would skip the whole chain while
// still being reported delivered. See README.md, "Recycled Parsed".
func loadFrame(slot *packet.Parsed, frame []byte) error {
	*slot = packet.Parsed{}
	return slot.Parse(frame)
}

// Addresses the bare forwarder's egress rewrite stamps
// (internal/traffic l2Rewrite).
var (
	bareSrcMAC = packet.MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x01}
	bareDstMAC = packet.MAC{0x02, 0x00, 0x00, 0x00, 0x00, 0x02}
)

func isBackend(ip packet.IP4) bool { return ip == scenario.Backend1 || ip == scenario.Backend2 }

// checkParsed applies the per-packet header rule to a packet that left
// the switch: full → SFC header popped, destination rewritten to a
// backend, next hop the workload MAC; medium → VXLAN to the remote VTEP
// carrying the tenant VNI around the untouched inner destination;
// basic → upstream MAC, destination untouched; bare → the forwarder's
// MAC rewrite. Every path decrements the (outer) TTL once from 64.
func checkParsed(kind pathKind, in, out *packet.Parsed) bool {
	if out.Valid(packet.HdrSFC) || !out.Valid(packet.HdrEth|packet.HdrIPv4) {
		return false
	}
	switch kind {
	case kindFull:
		return isBackend(out.IPv4.Dst) && out.Eth.Dst == scenario.WorkloadMAC &&
			out.Eth.Src == scenario.GatewayMAC && out.IPv4.TTL == 63 && out.Valid(packet.HdrTCP)
	case kindMedium:
		return out.Valid(packet.HdrVXLAN|packet.HdrInnerIPv4) && out.IPv4.Dst == scenario.RemoteVTEP &&
			out.VXLAN.VNI == scenario.TenantVNI && out.InnerIPv4.Dst == scenario.TenantHost &&
			out.Eth.Dst == scenario.WorkloadMAC && out.IPv4.TTL == 63
	case kindBasic:
		return out.Eth.Dst == scenario.UpstreamMAC && out.IPv4.Dst == in.IPv4.Dst && out.IPv4.TTL == 63
	default:
		return out.Eth.Src == bareSrcMAC && out.Eth.Dst == bareDstMAC &&
			out.IPv4.Dst == in.IPv4.Dst && out.IPv4.TTL == 63
	}
}

// Byte offsets of the fields checkWire reads in a serialized frame.
const (
	offEthDst  = 0
	offEthSrc  = 6
	offEthType = 12
	offTTL     = packet.EthernetLen + 8
	offIPDst   = packet.EthernetLen + 16
	offUDPDst  = packet.EthernetLen + packet.IPv4MinLen + 2
	offVNI     = udpHeaders + 4
	offInnerIP = udpHeaders + packet.VXLANLen + packet.EthernetLen + 16
	// vxlanOverhead is what VGW encapsulation adds to a frame.
	vxlanOverhead = packet.EthernetLen + packet.IPv4MinLen + packet.UDPLen + packet.VXLANLen
)

// checkWire is checkParsed on the serialized output, cheap enough to
// run on every packet of a timed run: a few fixed-offset compares
// against the frame that went in. verifyFlows proves the two rules
// agree on every flow before timing starts.
func checkWire(kind pathKind, in, out []byte) bool {
	if len(out) < udpHeaders || out[offEthType] != 0x08 || out[offEthType+1] != 0x00 || out[offTTL] != 63 {
		return false
	}
	dst := out[offIPDst : offIPDst+4]
	switch kind {
	case kindFull:
		return len(out) == len(in) && bytes.Equal(out[offEthDst:offEthDst+6], scenario.WorkloadMAC[:]) &&
			(bytes.Equal(dst, scenario.Backend1[:]) || bytes.Equal(dst, scenario.Backend2[:]))
	case kindMedium:
		return len(out) == len(in)+vxlanOverhead && bytes.Equal(dst, scenario.RemoteVTEP[:]) &&
			out[offUDPDst] == byte(packet.VXLANPort>>8) && out[offUDPDst+1] == byte(packet.VXLANPort&0xFF) &&
			out[offVNI] == byte(scenario.TenantVNI>>16) && out[offVNI+1] == byte(scenario.TenantVNI>>8) && out[offVNI+2] == byte(scenario.TenantVNI) &&
			bytes.Equal(out[offInnerIP:offInnerIP+4], scenario.TenantHost[:])
	case kindBasic:
		return len(out) == len(in) && bytes.Equal(out[offEthDst:offEthDst+6], scenario.UpstreamMAC[:]) &&
			bytes.Equal(dst, in[offIPDst:offIPDst+4])
	default:
		return len(out) == len(in) && bytes.Equal(out[offEthSrc:offEthSrc+6], bareSrcMAC[:]) &&
			bytes.Equal(out[offEthDst:offEthDst+6], bareDstMAC[:]) && bytes.Equal(dst, in[offIPDst:offIPDst+4])
	}
}
