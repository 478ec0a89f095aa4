package asic

import (
	"sync"
	"testing"
	"unsafe"

	"dejavu/internal/packet"
	"dejavu/internal/telemetry"
)

// puntAll returns a switch whose pipeline-0 ingress punts every packet.
func puntAll() *Switch {
	s := New(Wedge100B())
	s.InstallIngress(0, func(c *Ctx) { c.Meta.ToCPU = true })
	return s
}

// TestCPUQueueBoundedUnderOverload: ten times the cap of punts with no
// drain, from two injectors at once, each mixing the traced, quiet and
// batched paths. The queue takes exactly cap of them and never grows
// past it; every other punt is a typed drop on whichever path it came,
// and the switch-wide drop counter, the telemetry snapshot and the
// exposition agree on how many, to the packet. One drain empties the
// queue and punts are taken again. Run with -race (CI does).
func TestCPUQueueBoundedUnderOverload(t *testing.T) {
	s := puntAll()
	dp := telemetry.NewDatapath(s.prof.Pipelines)
	s.SetTelemetry(dp)

	const burst, injectors = 32, 2
	var punted, dropped [injectors][3]int // by injector and path: traced, quiet, batched
	var wg sync.WaitGroup
	for w := 0; w < injectors; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pkts := batchPackets(burst)
			for sent := 0; sent < 10*cpuQueueCap/injectors; sent += burst {
				switch path := sent / burst % 3; path {
				case 0:
					for i := 0; i < burst; i++ {
						tr, err := s.Inject(0, testPacket())
						if err != nil {
							t.Error(err)
							return
						}
						if tr.Dropped {
							if tr.DropCode != telemetry.DropCPUQueueFull || tr.DropReason != "cpu_queue_full" || len(tr.CPU) != 0 {
								t.Errorf("traced packet %d: dropped with %v %q, %d CPU copies", sent+i, tr.DropCode, tr.DropReason, len(tr.CPU))
							}
							dropped[w][path]++
						} else if len(tr.CPU) == 1 {
							punted[w][path]++
						}
					}
				case 1:
					for i := 0; i < burst; i++ {
						q, err := s.InjectQuiet(0, testPacket())
						if err != nil {
							t.Error(err)
							return
						}
						if q.Dropped {
							if q.DropCode != telemetry.DropCPUQueueFull || q.DropReason != "cpu_queue_full" || q.ToCPU != 0 {
								t.Errorf("quiet packet %d: dropped with %v %q, ToCPU=%d", sent+i, q.DropCode, q.DropReason, q.ToCPU)
							}
							dropped[w][path]++
						} else if q.ToCPU == 1 {
							punted[w][path]++
						}
					}
				case 2:
					br := s.InjectQuietBatch(0, pkts)
					if br.Err != nil || br.ToCPU+br.Dropped != burst {
						t.Errorf("burst at %d: %+v", sent, br)
					}
					punted[w][path] += br.ToCPU
					dropped[w][path] += br.Dropped
				}
				if d := s.CPUQueueDepth(); d > cpuQueueCap {
					t.Errorf("after %d punts the queue holds %d packets, cap %d", sent+burst, d, cpuQueueCap)
				}
			}
		}()
	}
	wg.Wait()

	var took, lost int
	for path, name := range []string{"traced", "quiet", "batched"} {
		p, d := punted[0][path]+punted[1][path], dropped[0][path]+dropped[1][path]
		if p == 0 || d == 0 {
			t.Errorf("%s path: %d punted, %d dropped; the test wants both on every path", name, p, d)
		}
		took, lost = took+p, lost+d
	}
	if took != cpuQueueCap || s.CPUQueueDepth() != cpuQueueCap {
		t.Errorf("%d punts accepted, depth %d, want the cap %d", took, s.CPUQueueDepth(), cpuQueueCap)
	}
	const excess = 9 * cpuQueueCap
	if lost != excess || s.Drops() != excess {
		t.Errorf("%d typed drops, Switch.Drops() = %d, want %d", lost, s.Drops(), excess)
	}
	snap := dp.Snapshot()
	if snap.Drops[telemetry.DropCPUQueueFull] != excess || snap.Dropped != excess || snap.ToCPU != cpuQueueCap {
		t.Errorf("telemetry: drops=%v dropped=%d toCPU=%d", snap.Drops, snap.Dropped, snap.ToCPU)
	}
	exposed := -1.0
	for _, fam := range dp.Gather() {
		if fam.Name != "dejavu_drops_total" {
			continue
		}
		for _, smp := range fam.Samples {
			if smp.Labels == `reason="cpu_queue_full"` {
				exposed = smp.Value
			}
		}
	}
	if exposed != excess {
		t.Errorf(`dejavu_drops_total{reason="cpu_queue_full"} = %v, want %d`, exposed, excess)
	}

	if got := len(s.DrainCPU()); got != cpuQueueCap || s.CPUQueueDepth() != 0 {
		t.Errorf("drain returned %d packets and left %d", got, s.CPUQueueDepth())
	}
	pkts := batchPackets(burst)
	if br := s.InjectQuietBatch(0, pkts); br.ToCPU != burst || s.CPUQueueDepth() != burst {
		t.Errorf("after the drain: %+v, depth %d", br, s.CPUQueueDepth())
	}

	// The full drain's 128 chunks and its queue are not kept: after two
	// more small drains the switch holds one chunk's worth for reuse.
	for range 2 {
		s.DrainCPU()
		s.InjectQuietBatch(0, pkts[:3])
	}
	s.DrainCPU()
	checkRetained(t, s)
}

// checkRetained fails the test unless every slice the switch keeps for its
// CPU queue's reuse holds at most CPUChunkMax packets, and every arena the
// bytes of as many (the test packets carry at most 64).
func checkRetained(t *testing.T, s *Switch) {
	t.Helper()
	s.cpuMu.Lock()
	defer s.cpuMu.Unlock()
	for name, n := range map[string]int{
		"queue": cap(s.cpuQueue), "lent queue": cap(s.cpuLent),
		"queued chunk": cap(s.queued.chunk), "lent chunk": cap(s.lent.chunk), "spare chunk": cap(s.spare.chunk),
	} {
		if n > CPUChunkMax {
			t.Errorf("the switch keeps a %s of %d packets, cap %d", name, n, CPUChunkMax)
		}
	}
	for _, m := range []puntMem{s.queued, s.lent, s.spare} {
		if cap(m.arena) > 64*CPUChunkMax {
			t.Errorf("the switch keeps an arena of %d bytes", cap(m.arena))
		}
	}
}

// TestDrainedPacketsAreTheCallers: the packets one drain hands out are
// distinct deep copies of what was punted, and they are the caller's until
// the next drain — any number of punts before it leave a held drain as it
// was. The drain after takes its memory back, and later punts reuse it.
func TestDrainedPacketsAreTheCallers(t *testing.T) {
	s := puntAll()
	punt := func(round int) {
		pkts := batchPackets(32)
		for i, p := range pkts {
			p.IPv4.ID = uint16(round<<8 | i)
			p.Payload = []byte{byte(round), byte(i)}
		}
		if br := s.InjectQuietBatch(0, pkts); br.ToCPU != len(pkts) {
			t.Fatalf("round %d: %+v", round, br)
		}
		for _, p := range pkts {
			p.Payload[1] = 0xEE // the copy must not alias the injector's payload
		}
	}

	reused := false
	var earlier map[*packet.Parsed]bool
	for round := 0; round < 4; round++ {
		punt(round)
		held := s.DrainCPU()
		before := wireOf(t, held)
		seen := make(map[*packet.Parsed]bool)
		for _, p := range held {
			if seen[p] {
				t.Fatalf("round %d: one drain handed out a packet twice", round)
			}
			seen[p] = true
			reused = reused || earlier[p]
		}
		for later := 1; later <= 3; later++ {
			punt(round<<2 | later)
		}
		for i, b := range wireOf(t, held) {
			if string(b) != string(before[i]) {
				t.Errorf("round %d: held packet %d changed under later punts", round, i)
			}
			if p := held[i]; p.IPv4.ID != uint16(round<<8|i) || p.Payload[1] != byte(i) {
				t.Errorf("round %d: held packet %d is not the copy of what was punted: id %d payload %v", round, i, p.IPv4.ID, p.Payload)
			}
		}
		s.DrainCPU() // the later punts
		earlier = seen
	}
	if !reused {
		t.Error("no drain reused the memory of a drain before it")
	}
}

// TestRecycledArenaNeverAliasesAHeldDrain: bursts of very uneven payloads
// outgrow the arena their chunk started with and take a second one
// mid-chunk. Recycling chunks and arenas across many such bursts never
// writes to a byte a packet of the held drain still shows.
func TestRecycledArenaNeverAliasesAHeldDrain(t *testing.T) {
	s := puntAll()
	uneven := func(round int) []*packet.Parsed {
		pkts := batchPackets(CPUChunkMax)
		for i, p := range pkts {
			n := 1 + (i*37+round*11)%7 // mostly tiny, every few a large one
			if i%5 == round%5 {
				n = 1200 + 17*i
			}
			p.Payload = make([]byte, n)
			for j := range p.Payload {
				p.Payload[j] = byte(round*31 + i + j)
			}
		}
		return pkts
	}
	reused, earlier := false, make(map[*packet.Parsed]bool)
	for round := 0; round < 12; round++ {
		if br := s.InjectQuietBatch(0, uneven(round)); br.ToCPU != CPUChunkMax {
			t.Fatalf("round %d: %+v", round, br)
		}
		held := s.DrainCPU()
		before := wireOf(t, held)
		reused = reused || earlier[held[0]]
		earlier[held[0]] = true
		for later := 1; later <= 3; later++ {
			s.InjectQuietBatch(0, uneven(round+100*later))
		}
		for i, b := range wireOf(t, held) {
			if string(b) != string(before[i]) {
				t.Fatalf("round %d: held packet %d changed under later punts", round, i)
			}
		}
		s.DrainCPU()
	}
	if !reused {
		t.Error("no drain reused the memory of a drain before it")
	}
}

// wireOf serializes packets.
func wireOf(t *testing.T, pkts []*packet.Parsed) [][]byte {
	t.Helper()
	out := make([][]byte, len(pkts))
	for i, p := range pkts {
		b, err := p.Serialize(nil)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out
}

// TestCPUChunkFollowsTheDrain pins the queue's allocation budget and its
// visibility rule. Once warm, punts and a drain allocate nothing — the
// chunk, its arena and the queue are those of the drain before last —
// whether the switch is polled per packet or per burst, with bytes to copy
// or without. A burst of 40 punts is a chunk of 32 and one of 8: its punts
// reach the queue when a chunk fills (the 33rd punt queues the first 32)
// or the burst returns, not before.
func TestCPUChunkFollowsTheDrain(t *testing.T) {
	s := New(Wedge100B())
	var seen []int // queue depth each packet of a burst found
	s.InstallIngress(0, func(c *Ctx) {
		seen = append(seen, s.CPUQueueDepth())
		c.Meta.ToCPU = true
	})
	loaded := func(n int) []*packet.Parsed { // with bytes for the copy to carve from an arena
		pkts := batchPackets(n)
		for i, p := range pkts {
			p.Payload = []byte{byte(i), 0xA5, 0x5A}
		}
		return pkts
	}
	for _, n := range []int{1, 32} {
		for _, pkts := range [][]*packet.Parsed{batchPackets(n), loaded(n)} {
			seen = make([]int, 0, 200*n)
			cycle := func() {
				s.InjectQuietBatch(0, pkts)
				s.DrainCPU()
			}
			cycle() // the first two cycles make the chunks, arenas and queues
			cycle() // the later ones take turns with
			if got := testing.AllocsPerRun(100, cycle); got != 0 {
				t.Errorf("%d punts and a drain: %.2f allocations once warm, want 0", n, got)
			}
		}
	}

	seen = seen[:0]
	if br := s.InjectQuietBatch(0, batchPackets(40)); br.ToCPU != 40 {
		t.Fatalf("burst of 40: %+v", br)
	}
	for i, depth := range seen {
		if want := i / 33 * 32; depth != want {
			t.Errorf("packet %d of the burst found %d punts queued, want %d", i, depth, want)
		}
	}
	out := s.DrainCPU()
	if len(out) != 40 {
		t.Fatalf("drained %d packets, want 40", len(out))
	}
	for i := 1; i < len(out); i++ {
		gap := uintptr(unsafe.Pointer(out[i])) - uintptr(unsafe.Pointer(out[i-1]))
		if sameChunk := i != 32; sameChunk != (gap == unsafe.Sizeof(*out[i])) {
			t.Errorf("packets %d and %d are %d bytes apart; a chunk boundary is wanted after 32 packets and nowhere else", i-1, i, gap)
		}
	}
}

// TestTracedInjectOneAllocation: a journey that fits the trace's inline
// room — four steps and one emission, the shape of the §5 chain with
// one recirculation — is recorded in one allocation, and a traced burst
// of such journeys into the caller's storage in none.
func TestTracedInjectOneAllocation(t *testing.T) {
	s := New(Wedge100B())
	s.InstallIngress(0, func(c *Ctx) {
		if c.Meta.Passes == 1 {
			c.Meta.OutPort = RecircPort(0)
			return
		}
		c.Meta.OutPort = 1
	})
	pkt := testPacket()
	var tr *Trace
	got := testing.AllocsPerRun(200, func() { tr, _ = s.Inject(0, pkt) })
	if got != 1 {
		t.Errorf("traced Inject = %.1f allocations, want 1", got)
	}
	if len(tr.Steps) != 4 || len(tr.Out) != 1 || tr.Steps[1].Note != "recirculate" || tr.Recirculations != 1 {
		t.Errorf("trace = %+v", tr)
	}
	const n = CPUChunkMax + 8
	pkts, bufs, traces, errs := batchPackets(n), make([]TraceBuf, n), make([]*Trace, n), make([]error, n)
	if got := testing.AllocsPerRun(100, func() { s.InjectBurst(0, pkts, bufs, traces, errs) }); got != 0 {
		t.Errorf("traced burst of %d = %.1f allocations, want 0", len(pkts), got)
	}
	for i, tr := range traces {
		if errs[i] != nil || tr != &bufs[i].Trace || len(tr.Steps) != 4 || len(tr.Out) != 1 || tr.Out[0].Pkt != pkts[i] {
			t.Fatalf("traced burst of %d, trace %d = %+v, %v", len(pkts), i, tr, errs[i])
		}
	}
}

// TestInjectIntoReusedBuffer: InjectInto overwrites the buffer it is
// given, so a short journey recorded where a long one was — resubmits,
// a mirror copy, a punt — equals what Inject records into a fresh one.
func TestInjectIntoReusedBuffer(t *testing.T) {
	s := New(Wedge100B())
	s.InstallIngress(0, func(c *Ctx) {
		switch {
		case c.Pkt.IPv4.TTL == 1:
			c.Meta.ToCPU = true
		case c.Pkt.IPv4.TTL == 2 && c.Meta.Passes < 3:
			c.Meta.Resubmit = true
		case c.Pkt.IPv4.TTL == 2:
			c.Meta.Mirror, c.Meta.MirrorPort = true, 2
			c.Meta.OutPort = 1
		default:
			c.Meta.OutPort = 1
		}
	})
	var buf TraceBuf
	for _, ttl := range []uint8{2, 1, 2, 64} {
		pkt := testPacket()
		pkt.IPv4.TTL = ttl
		got, err := s.InjectInto(0, pkt, &buf)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := s.Inject(0, pkt.Clone())
		if got.Path() != want.Path() || got.Resubmissions != want.Resubmissions || len(got.Out) != len(want.Out) ||
			len(got.CPU) != len(want.CPU) || got.Dropped != want.Dropped || got.Latency != want.Latency {
			t.Errorf("TTL %d into a reused buffer = %+v, fresh = %+v", ttl, got, want)
		}
	}
	s.DrainCPU()
}

// TestTraceOutgrowsInlineRoom: a journey longer than the inline room —
// resubmissions, recirculations and a mirror copy — records every step
// and emission exactly as a trace without inline room did.
func TestTraceOutgrowsInlineRoom(t *testing.T) {
	s := New(Wedge100B())
	s.InstallIngress(0, func(c *Ctx) {
		switch c.Meta.Passes {
		case 1, 2:
			c.Meta.Resubmit = true
		case 3, 4:
			c.Meta.OutPort = RecircPort(0)
		default:
			c.Meta.Mirror, c.Meta.MirrorPort = true, 2
			c.Meta.OutPort = 1
		}
	})
	tr, err := s.Inject(0, testPacket())
	if err != nil {
		t.Fatal(err)
	}
	in, eg := PipeletID{0, Ingress}, PipeletID{0, Egress}
	want := []Step{
		{in, "resubmit"}, {in, "resubmit"},
		{in, ""}, {eg, "recirculate"},
		{in, ""}, {eg, "recirculate"},
		{in, ""}, {eg, ""},
	}
	if len(tr.Steps) != len(want) {
		t.Fatalf("%d steps, want %d: %s", len(tr.Steps), len(want), tr.Path())
	}
	for i, st := range tr.Steps {
		if st != want[i] {
			t.Errorf("step %d = %+v, want %+v", i, st, want[i])
		}
	}
	if len(tr.Out) != 2 || tr.Out[0].Port != 2 || tr.Out[1].Port != 1 || tr.Out[0].Pkt == tr.Out[1].Pkt {
		t.Errorf("Out = %+v, want the mirror copy on port 2, then the packet on port 1", tr.Out)
	}
	if tr.Resubmissions != 2 || tr.Recirculations != 2 {
		t.Errorf("resubmissions %d, recirculations %d, want 2 and 2", tr.Resubmissions, tr.Recirculations)
	}
}
