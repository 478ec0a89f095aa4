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
}

// TestDrainedPacketsAreTheCallers: packets handed out by one drain are
// deep copies no later punt writes to, and no two drains share one.
func TestDrainedPacketsAreTheCallers(t *testing.T) {
	s := puntAll()
	punt := func(round int) []*packet.Parsed {
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
		return s.DrainCPU()
	}
	wire := func(pkts []*packet.Parsed) [][]byte {
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

	held := punt(0)
	before := wire(held)
	seen := make(map[*packet.Parsed]bool)
	for _, p := range held {
		seen[p] = true
	}
	for round := 1; round <= 3; round++ {
		for _, p := range punt(round) {
			if seen[p] {
				t.Fatalf("round %d handed out a packet an earlier drain already had", round)
			}
			seen[p] = true
		}
	}
	for i, b := range wire(held) {
		if string(b) != string(before[i]) {
			t.Errorf("held packet %d changed under later punts", i)
		}
		if p := held[i]; p.IPv4.ID != uint16(i) || p.Payload[1] != byte(i) {
			t.Errorf("held packet %d is not the copy of what was punted: id %d payload %v", i, p.IPv4.ID, p.Payload)
		}
	}
}

// TestCPUChunkFollowsTheDrain pins the queue's allocation budget and its
// visibility rule. A chunk is as long as the burst can still fill, at
// most cpuChunkMax: the punts between two drains cost one chunk and one
// queue — and one arena when they carry bytes — whether the switch is
// polled per packet or per burst, and a burst of 40 punts is a chunk of
// 32 and one of 8. Its punts reach the queue when a chunk fills (the
// 33rd punt queues the first 32) or the burst returns, not before.
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
		for _, tc := range []struct {
			pkts []*packet.Parsed
			want float64
		}{{batchPackets(n), 2}, {loaded(n), 3}} {
			seen = make([]int, 0, 200*n)
			cycle := func() {
				s.InjectQuietBatch(0, tc.pkts)
				s.DrainCPU()
			}
			if got := testing.AllocsPerRun(100, cycle); got != tc.want {
				t.Errorf("%d punts and a drain: %.1f allocations, want %.0f (chunk, queue, arena if any)", n, got, tc.want)
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
// of such journeys in one allocation per block of cpuChunkMax traces.
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
	pkts, traces, errs := batchPackets(cpuChunkMax), make([]*Trace, cpuChunkMax+8), make([]error, cpuChunkMax+8)
	if got := testing.AllocsPerRun(100, func() { s.InjectBurst(0, pkts, traces, errs) }); got != 1 {
		t.Errorf("traced burst of %d = %.1f allocations, want 1", len(pkts), got)
	}
	// A longer burst is a block per cpuChunkMax traces: neighbours are one
	// TraceBuf apart except across the block boundary.
	pkts = batchPackets(len(traces))
	s.InjectBurst(0, pkts, traces, errs)
	for i, tr := range traces {
		if errs[i] != nil || len(tr.Steps) != 4 || len(tr.Out) != 1 || tr.Out[0].Pkt != pkts[i] {
			t.Fatalf("traced burst of %d, trace %d = %+v, %v", len(pkts), i, tr, errs[i])
		}
		if i == 0 {
			continue
		}
		gap := uintptr(unsafe.Pointer(tr)) - uintptr(unsafe.Pointer(traces[i-1]))
		if sameBlock := i != cpuChunkMax; sameBlock != (gap == unsafe.Sizeof(TraceBuf{})) {
			t.Errorf("traces %d and %d are %d bytes apart; a block boundary is wanted after %d traces and nowhere else", i-1, i, gap, cpuChunkMax)
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
