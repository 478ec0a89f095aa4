package packet

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"

	"dejavu/internal/nsh"
)

// bitLoopCRC32 is the bit-at-a-time CRC-32 (IEEE, reflected) that
// FiveTuple.Hash used to run, kept as the reference: LB backend
// choice, session keys, VXLAN source ports and the synthetic
// forwarder's port spread all depend on its exact values.
func bitLoopCRC32(data []byte) uint32 {
	crc := ^uint32(0)
	for _, b := range data {
		crc ^= uint32(b)
		for i := 0; i < 8; i++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ 0xEDB88320
			} else {
				crc >>= 1
			}
		}
	}
	return ^crc
}

func tupleKey(ft FiveTuple) []byte {
	return []byte{ft.Src[0], ft.Src[1], ft.Src[2], ft.Src[3], ft.Dst[0], ft.Dst[1], ft.Dst[2], ft.Dst[3],
		ft.Proto, byte(ft.SrcPort >> 8), byte(ft.SrcPort), byte(ft.DstPort >> 8), byte(ft.DstPort)}
}

func TestFiveTupleHashGolden(t *testing.T) {
	for _, c := range []struct {
		ft   FiveTuple
		want uint32
	}{
		{FiveTuple{}, 0x0f744682},
		{FiveTuple{Src: IP4{198, 51, 100, 10}, Dst: IP4{203, 0, 113, 80}, Proto: ProtoTCP, SrcPort: 40000, DstPort: 443}, 0x17098fa0},
		{FiveTuple{Src: IP4{255, 255, 255, 255}, Dst: IP4{255, 255, 255, 255}, Proto: 255, SrcPort: 65535, DstPort: 65535}, 0xf2d6f3c1},
		{FiveTuple{Src: IP4{10, 0, 2, 5}, Dst: IP4{172, 16, 0, 9}, Proto: ProtoUDP, SrcPort: VXLANPort, DstPort: VXLANPort}, 0x75b06937},
	} {
		if got := c.ft.Hash(); got != c.want {
			t.Errorf("Hash(%+v) = %#x, want %#x", c.ft, got, c.want)
		}
	}
}

func TestFiveTupleHashMatchesBitLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		var ft FiveTuple
		rng.Read(ft.Src[:])
		rng.Read(ft.Dst[:])
		ft.Proto = uint8(rng.Intn(256))
		ft.SrcPort, ft.DstPort = uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16))
		key := tupleKey(ft)
		got := ft.Hash()
		if want := bitLoopCRC32(key); got != want {
			t.Fatalf("Hash(%+v) = %#x, bit loop says %#x", ft, got, want)
		}
		if want := crc32.ChecksumIEEE(key); got != want {
			t.Fatalf("Hash(%+v) = %#x, hash/crc32 says %#x", ft, got, want)
		}
	}
}

// FuzzFiveTupleHash: the word-folded hash is hash/crc32's checksum of
// the 13-byte wire key, whatever the tuple.
func FuzzFiveTupleHash(f *testing.F) {
	f.Add(uint32(0), uint32(0), uint8(0), uint16(0), uint16(0))
	f.Add(^uint32(0), ^uint32(0), uint8(255), uint16(65535), uint16(65535))
	f.Add(uint32(0xC6336440), uint32(0xCB007150), ProtoTCP, uint16(40000), uint16(443))
	f.Fuzz(func(t *testing.T, src, dst uint32, proto uint8, sport, dport uint16) {
		ft := FiveTuple{Src: IP4FromUint32(src), Dst: IP4FromUint32(dst), Proto: proto, SrcPort: sport, DstPort: dport}
		if got, want := ft.Hash(), crc32.ChecksumIEEE(tupleKey(ft)); got != want {
			t.Fatalf("Hash(%+v) = %#x, hash/crc32 says %#x", ft, got, want)
		}
	})
}

// flowHeaders are the validity bits flowPacket draws from; the fuzzer
// sets any subset of them, so TCP beside UDP and ports without IPv4
// are covered as well as the four stacks a parser produces.
var flowHeaders = [...]HeaderBit{HdrIPv4, HdrTCP, HdrUDP, HdrICMP}

// flowPacket is a header vector with the given addresses, protocol and
// TCP ports, UDP ports that differ from them, and the headers of
// flowHeaders whose bit is set in hdrs.
func flowPacket(src, dst uint32, proto uint8, sport, dport uint16, hdrs uint8) *Parsed {
	p := &Parsed{}
	p.IPv4.Src, p.IPv4.Dst, p.IPv4.Protocol = IP4FromUint32(src), IP4FromUint32(dst), proto
	p.TCP.SrcPort, p.TCP.DstPort = sport, dport
	p.UDP.SrcPort, p.UDP.DstPort = ^dport, sport+1
	for i, h := range flowHeaders {
		if hdrs&(1<<i) != 0 {
			p.SetValid(h)
		}
	}
	return p
}

// checkFlowWords holds the word-form key to the tuple FiveTuple
// returns: the words are that tuple's 13 wire bytes read little-endian,
// ok agrees, and FlowHash is hash/crc32's checksum of those bytes.
func checkFlowWords(t *testing.T, p *Parsed) {
	t.Helper()
	ft, ftOK := p.FiveTuple()
	key := tupleKey(ft)
	var w [16]byte
	copy(w[:], key)
	want0, want1 := binary.LittleEndian.Uint64(w[:8]), binary.LittleEndian.Uint64(w[8:])
	k0, k1, ok := p.FlowWords()
	if k0 != want0 || k1 != want1 || ok != ftOK {
		t.Fatalf("%v FlowWords = %#x, %#x, %v; FiveTuple %+v, %v has words %#x, %#x", p, k0, k1, ok, ft, ftOK, want0, want1)
	}
	if got, want := FlowHash(k0, k1), crc32.ChecksumIEEE(key); got != want {
		t.Fatalf("FlowHash(%#x, %#x) = %#x, hash/crc32 says %#x", k0, k1, got, want)
	}
}

func TestFlowWordsMatchFiveTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20_000; i++ {
		checkFlowWords(t, flowPacket(rng.Uint32(), rng.Uint32(), uint8(rng.Intn(256)),
			uint16(rng.Intn(1<<16)), uint16(rng.Intn(1<<16)), uint8(rng.Intn(1<<len(flowHeaders)))))
	}
}

// FuzzFlowWords: the word-form key and its hash agree with FiveTuple
// and hash/crc32 on TCP, UDP, ICMP and non-IPv4 header vectors.
func FuzzFlowWords(f *testing.F) {
	f.Add(uint32(0xC6336440), uint32(0xCB007150), ProtoTCP, uint16(40000), uint16(443), uint8(0b0011)) // TCP
	f.Add(uint32(0x0A000205), uint32(0xAC100009), ProtoUDP, uint16(4789), uint16(53), uint8(0b0101))   // UDP
	f.Add(uint32(0x0A000001), uint32(0x0A000002), ProtoICMP, uint16(0), uint16(0), uint8(0b1001))      // ICMP
	f.Add(^uint32(0), ^uint32(0), uint8(255), uint16(65535), uint16(65535), uint8(0b0110))             // no IPv4
	f.Fuzz(func(t *testing.T, src, dst uint32, proto uint8, sport, dport uint16, hdrs uint8) {
		checkFlowWords(t, flowPacket(src, dst, proto, sport, dport, hdrs))
	})
}

func TestFiveTupleHashDoesNotAllocate(t *testing.T) {
	ft := FiveTuple{Src: IP4{1, 2, 3, 4}, Dst: IP4{5, 6, 7, 8}, Proto: ProtoTCP, SrcPort: 9, DstPort: 10}
	p := flowPacket(0x01020304, 0x05060708, ProtoTCP, 9, 10, 0b0011)
	var sink uint32
	if n := testing.AllocsPerRun(1000, func() { sink += ft.Hash() }); n != 0 {
		t.Errorf("Hash allocates %.1f times per call", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		k0, k1, _ := p.FlowWords()
		sink += FlowHash(k0, k1)
	}); n != 0 {
		t.Errorf("FlowWords+FlowHash allocates %.1f times per call", n)
	}
	_ = sink
}

// TestRecycledSlotIsFresh: a Parsed that carried a classified packet
// must come back from Reset and Parse looking never classified —
// the framework tells "fresh" from "chain terminated" by
// SFC.ServicePathID, which outlives the header's validity bit.
func TestRecycledSlotIsFresh(t *testing.T) {
	plain := NewTCP(TCPOpts{SrcMAC: macA, DstMAC: macB, Src: ipA, Dst: ipB, SrcPort: 1, DstPort: 2})
	wire, err := plain.Serialize(nil)
	if err != nil {
		t.Fatal(err)
	}
	used := func(p *Parsed) {
		h := nsh.New(10, 5)
		h.SetContext(nsh.KeyTenantID, 42)
		h.Meta.Set(nsh.FlagToCPU)
		p.PushSFC(h)
		p.PopSFC() // what the Router leaves behind: struct set, header gone
	}
	check := func(what string, p *Parsed) {
		t.Helper()
		if p.SFC != (nsh.Header{}) {
			t.Errorf("%s: stale SFC state %+v", what, p.SFC)
		}
	}

	var slot Parsed
	used(&slot)
	slot.Reset()
	check("Reset", &slot)

	used(&slot)
	if err := slot.Parse(wire); err != nil {
		t.Fatal(err)
	}
	check("Parse of an untagged frame", &slot)
}
