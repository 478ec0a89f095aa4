package scenario

import (
	"fmt"

	"dejavu/internal/asic"
	"dejavu/internal/packet"
)

// Probe is one packet of the §5 functional suite (the paper's Packet
// Test Framework run): it exercises one SFC path of Fig. 2 and must
// leave the switch on one port with the path's headers.
type Probe struct {
	Name   string
	PathID uint16
	Port   asic.PortID // inject port
	Exit   asic.PortID // the one port the packet must leave on
	Packet func() *packet.Parsed
	// Check inspects the emitted packet's headers; nil accepts any.
	Check func(*packet.Parsed) error
}

// Probes returns the §5 functional suite, one probe per SFC path, in
// the order full, medium, basic. The full probe's first packet misses
// the LB session table and punts; once the control plane has learnt
// the session, every probe passes Verify.
func Probes() []Probe {
	return []Probe{
		{Name: "full", PathID: PathFull, Port: PortClient, Exit: PortBackends,
			Packet: func() *packet.Parsed { return ClientTCP(443) }, Check: noSFC},
		{Name: "medium", PathID: PathMedium, Port: PortClient, Exit: PortVTEP,
			Packet: TenantBound, Check: tenantVXLAN},
		{Name: "basic", PathID: PathBasic, Port: PortClient, Exit: PortUpstream,
			Packet: InternetBound, Check: noSFC},
	}
}

// Verify checks what the switch emitted for one probe packet: exactly
// one packet, on the probe's exit port, passing the probe's check and
// surviving a serialize/parse round trip.
func (p Probe) Verify(out []asic.Emitted) error {
	if len(out) != 1 {
		return fmt.Errorf("probe %s: emitted %d packets, want 1", p.Name, len(out))
	}
	if out[0].Port != p.Exit {
		return fmt.Errorf("probe %s: exited port %d, want %d", p.Name, out[0].Port, p.Exit)
	}
	pkt := out[0].Pkt
	if p.Check != nil {
		if err := p.Check(pkt); err != nil {
			return fmt.Errorf("probe %s: %w", p.Name, err)
		}
	}
	wire, err := pkt.Serialize(nil)
	if err != nil {
		return fmt.Errorf("probe %s: serialize: %w", p.Name, err)
	}
	var q packet.Parsed
	if err := q.Parse(wire); err != nil {
		return fmt.Errorf("probe %s: reparse: %w", p.Name, err)
	}
	return nil
}

// noSFC asserts the SFC header was removed before exit.
func noSFC(p *packet.Parsed) error {
	if p.Valid(packet.HdrSFC) {
		return fmt.Errorf("SFC header still present on the wire")
	}
	return nil
}

// tenantVXLAN asserts the tenant's VXLAN encapsulation.
func tenantVXLAN(p *packet.Parsed) error {
	if !p.Valid(packet.HdrVXLAN) {
		return fmt.Errorf("no VXLAN header")
	}
	if p.VXLAN.VNI != TenantVNI {
		return fmt.Errorf("vni=%d, want %d", p.VXLAN.VNI, TenantVNI)
	}
	return noSFC(p)
}
