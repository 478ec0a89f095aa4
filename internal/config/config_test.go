package config

import (
	"testing"

	"dejavu/internal/packet"
)

func TestParseHelpers(t *testing.T) {
	if _, err := parseIP4("::1"); err == nil {
		t.Error("IPv6 accepted as IPv4")
	}
	if _, _, err := parseCIDR("10.0.0.0/33"); err == nil {
		t.Error("bad prefix length accepted")
	}
	addr, mask, err := parseCIDR("")
	if err != nil || addr != (packet.IP4{}) || mask != (packet.IP4{}) {
		t.Error("empty CIDR not wildcard")
	}
	a, m, err := parseCIDR("10.1.0.0/16")
	if err != nil || a != (packet.IP4{10, 1, 0, 0}) || m != (packet.IP4{255, 255, 0, 0}) {
		t.Errorf("parseCIDR = %v/%v (%v)", a, m, err)
	}
	_, zeroMask, err := parseCIDR("0.0.0.0/0")
	if err != nil || zeroMask != (packet.IP4{}) {
		t.Errorf("/0 mask = %v", zeroMask)
	}
	mac, err := parseMAC("02:de:1a:00:00:fe")
	if err != nil || mac != (packet.MAC{0x02, 0xDE, 0x1A, 0, 0, 0xFE}) {
		t.Errorf("parseMAC = %v (%v)", mac, err)
	}
	if _, err := parseMAC("02:de"); err == nil {
		t.Error("short MAC accepted")
	}
}
