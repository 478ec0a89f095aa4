package asic

import (
	"testing"

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
// drain. The queue takes cap of them and never grows past it; the rest
// are typed drops on the traced, quiet and batched paths alike, and the
// switch-wide drop counter, the telemetry snapshot and the exposition
// agree on how many. One drain empties the queue and punts are taken
// again.
func TestCPUQueueBoundedUnderOverload(t *testing.T) {
	s := puntAll()
	dp := telemetry.NewDatapath(s.prof.Pipelines)
	s.SetTelemetry(dp)

	const burst = 32
	pkts := batchPackets(burst)
	var punted, dropped [3]int // by path: traced, quiet, batched
	for sent := 0; sent < 10*cpuQueueCap; {
		switch path := sent / burst % 3; path {
		case 0:
			for i := 0; i < burst; i++ {
				tr, err := s.Inject(0, testPacket())
				if err != nil {
					t.Fatal(err)
				}
				if tr.Dropped {
					if tr.DropCode != telemetry.DropCPUQueueFull || tr.DropReason != "cpu_queue_full" || len(tr.CPU) != 0 {
						t.Fatalf("traced packet %d: dropped with %v %q, %d CPU copies", sent+i, tr.DropCode, tr.DropReason, len(tr.CPU))
					}
					dropped[path]++
				} else if len(tr.CPU) == 1 {
					punted[path]++
				}
			}
		case 1:
			for i := 0; i < burst; i++ {
				q, err := s.InjectQuiet(0, testPacket())
				if err != nil {
					t.Fatal(err)
				}
				if q.Dropped {
					if q.DropCode != telemetry.DropCPUQueueFull || q.DropReason != "cpu_queue_full" || q.ToCPU != 0 {
						t.Fatalf("quiet packet %d: dropped with %v %q, ToCPU=%d", sent+i, q.DropCode, q.DropReason, q.ToCPU)
					}
					dropped[path]++
				} else if q.ToCPU == 1 {
					punted[path]++
				}
			}
		case 2:
			br := s.InjectQuietBatch(0, pkts)
			if br.Err != nil || br.ToCPU+br.Dropped != burst {
				t.Fatalf("burst at %d: %+v", sent, br)
			}
			punted[path] += br.ToCPU
			dropped[path] += br.Dropped
		}
		sent += burst
		if d := s.CPUQueueDepth(); d > cpuQueueCap {
			t.Fatalf("after %d punts the queue holds %d packets, cap %d", sent, d, cpuQueueCap)
		}
	}

	for path, name := range []string{"traced", "quiet", "batched"} {
		if punted[path] == 0 || dropped[path] == 0 {
			t.Errorf("%s path: %d punted, %d dropped; the test wants both on every path", name, punted[path], dropped[path])
		}
	}
	if got := punted[0] + punted[1] + punted[2]; got != cpuQueueCap || s.CPUQueueDepth() != cpuQueueCap {
		t.Errorf("%d punts accepted, depth %d, want the cap %d", got, s.CPUQueueDepth(), cpuQueueCap)
	}
	const excess = 9 * cpuQueueCap
	if got := dropped[0] + dropped[1] + dropped[2]; got != excess || s.Drops() != excess {
		t.Errorf("%d typed drops, Switch.Drops() = %d, want %d", got, s.Drops(), excess)
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

// TestCPUChunkFollowsTheDrain pins the queue's allocation budget: the
// punts between two drains cost one chunk and one queue, whether the
// switch is polled per packet or per burst, and a chunk never outgrows
// cpuChunkMax however much one drain took.
func TestCPUChunkFollowsTheDrain(t *testing.T) {
	s := puntAll()
	bare := func(n int) []*packet.Parsed { // no payload: the copy itself allocates nothing
		pkts := batchPackets(n)
		for _, p := range pkts {
			p.Payload = nil
		}
		return pkts
	}
	for _, n := range []int{1, 32} {
		pkts := bare(n)
		cycle := func() {
			s.InjectQuietBatch(0, pkts)
			s.DrainCPU()
		}
		cycle() // the drain that sizes the next chunk
		if got := testing.AllocsPerRun(100, cycle); got != 2 {
			t.Errorf("%d punts and a drain: %.1f allocations, want 2 (chunk, queue)", n, got)
		}
	}
	s.InjectQuietBatch(0, bare(100))
	s.DrainCPU()
	s.InjectQuietBatch(0, bare(1))
	if got := cap(s.cpuChunk); got != cpuChunkMax {
		t.Errorf("chunk after a drain of 100 holds %d packets, want %d", got, cpuChunkMax)
	}
}

// TestTracedInjectOneAllocation: a journey that fits the trace's inline
// room — four steps and one emission, the shape of the §5 chain with
// one recirculation — is recorded in one allocation.
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
