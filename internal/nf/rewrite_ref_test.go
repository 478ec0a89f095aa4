package nf

import (
	"math/rand"
	"testing"

	"dejavu/internal/packet"
)

// The struct-based helpers the word-form flow key and the in-place
// header writes replaced, kept as the reference: VXLAN source ports and
// rewritten MACs must not move.

// refVXLANSrcPort is vxlanSrcPort through a FiveTuple copy of the inner
// stack.
func refVXLANSrcPort(hdr *packet.Parsed) uint16 {
	ft := packet.FiveTuple{Src: hdr.InnerIPv4.Src, Dst: hdr.InnerIPv4.Dst, Proto: hdr.InnerIPv4.Protocol}
	if hdr.Valid(packet.HdrInnerTCP) {
		ft.SrcPort, ft.DstPort = hdr.InnerTCP.SrcPort, hdr.InnerTCP.DstPort
	} else if hdr.Valid(packet.HdrInnerUDP) {
		ft.SrcPort, ft.DstPort = hdr.InnerUDP.SrcPort, hdr.InnerUDP.DstPort
	}
	return 0xC000 | uint16(ft.Hash()&0x3FFF)
}

// refParamMAC unpacks macParam into a returned array.
func refParamMAC(v uint64) packet.MAC {
	return packet.MAC{byte(v >> 40), byte(v >> 32), byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

func TestVXLANSrcPortMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	inner := [...]packet.HeaderBit{packet.HdrInnerTCP, packet.HdrInnerUDP}
	for i := 0; i < 20_000; i++ {
		var hdr packet.Parsed
		hdr.InnerIPv4.Src = packet.IP4FromUint32(rng.Uint32())
		hdr.InnerIPv4.Dst = packet.IP4FromUint32(rng.Uint32())
		hdr.InnerIPv4.Protocol = uint8(rng.Intn(256))
		hdr.InnerTCP.SrcPort, hdr.InnerTCP.DstPort = uint16(rng.Uint32()), uint16(rng.Uint32())
		hdr.InnerUDP.SrcPort, hdr.InnerUDP.DstPort = uint16(rng.Uint32()), uint16(rng.Uint32())
		for _, h := range inner {
			if rng.Intn(2) == 0 {
				hdr.SetValid(h)
			}
		}
		if got, want := vxlanSrcPort(&hdr), refVXLANSrcPort(&hdr); got != want {
			t.Fatalf("%v: vxlanSrcPort = %#x, reference %#x", &hdr, got, want)
		}
	}
}

func TestPutMACMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20_000; i++ {
		v := rng.Uint64()
		var m packet.MAC
		putMAC(&m, v)
		if want := refParamMAC(v); m != want {
			t.Fatalf("putMAC(%#x) = %s, reference %s", v, m, want)
		}
		if v &= 1<<48 - 1; macParam(m) != v {
			t.Fatalf("macParam(putMAC(%#x)) = %#x", v, macParam(m))
		}
	}
}
