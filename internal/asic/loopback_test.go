package asic

import (
	"sync"
	"sync/atomic"
	"testing"

	"dejavu/internal/telemetry"
)

// recircSwitch returns a switch whose pipeline 0 sends every packet to
// pipeline 1's dedicated recirculation port and whose pipeline 1 then
// forwards it out of port 1.
func recircSwitch(t *testing.T) *Switch {
	t.Helper()
	sw := New(Wedge100B())
	if err := sw.InstallIngress(0, forwardTo(RecircPort(1))); err != nil {
		t.Fatal(err)
	}
	if err := sw.InstallIngress(1, forwardTo(1)); err != nil {
		t.Fatal(err)
	}
	return sw
}

// tookPort injects one packet and returns the port it recirculated
// through: the one loopback or dedicated port whose TxPackets moved.
func tookPort(t *testing.T, sw *Switch) (PortID, *Trace) {
	t.Helper()
	candidates := []PortID{RecircPort(0), RecircPort(1)}
	for p := 0; p < sw.Profile().TotalPorts(); p++ {
		if p != 1 {
			candidates = append(candidates, PortID(p))
		}
	}
	before := make([]uint64, len(candidates))
	for i, p := range candidates {
		before[i] = sw.Stats(p).TxPackets.Load()
	}
	tr, err := sw.Inject(0, testPacket())
	if err != nil {
		t.Fatal(err)
	}
	took := PortUnset
	for i, p := range candidates {
		if sw.Stats(p).TxPackets.Load() != before[i] {
			if took != PortUnset {
				t.Fatalf("one packet moved ports %d and %d", took, p)
			}
			took = p
		}
	}
	return took, tr
}

// Traffic the branching sends to a pipeline's dedicated recirculation
// port leaves, in turn, through that pipeline's loopback ports in
// ascending order; a port taken out of loopback mode leaves the turn,
// a pipeline without loopback ports uses its dedicated port, and a
// down port still in loopback mode keeps its turn and drops it.
func TestRecirculationSpreadsOverLoopbackPorts(t *testing.T) {
	sw := recircSwitch(t)
	// Set out of order, and one on pipeline 0, which never serves
	// pipeline 1's recirculations. Port 20 loops off-chip, and a packet
	// taking it pays that latency.
	for _, p := range []PortID{20, 3, 17, 18} {
		mode := LoopbackOnChip
		if p == 20 {
			mode = LoopbackOffChip
		}
		if err := sw.SetLoopback(p, mode); err != nil {
			t.Fatal(err)
		}
	}
	prof := sw.Profile()
	for i, want := range []PortID{17, 18, 20, 17, 18, 20} {
		got, tr := tookPort(t, sw)
		if got != want || tr.Dropped || tr.Recirculations != 1 || len(tr.Out) != 1 || tr.Out[0].Port != 1 {
			t.Fatalf("packet %d took port %d (trace %+v), want %d and out port 1", i, got, tr, want)
		}
		latency := 2*prof.PortToPortLatency() + prof.RecircOnChip
		if want == 20 {
			latency = 2*prof.PortToPortLatency() + prof.RecircOffChip
		}
		if tr.Latency != latency {
			t.Errorf("packet %d through port %d: latency %v, want %v", i, got, tr.Latency, latency)
		}
	}

	sw.SetLoopback(18, LoopbackOff)
	counts := map[PortID]int{}
	for i := 0; i < 4; i++ {
		got, _ := tookPort(t, sw)
		counts[got]++
	}
	if counts[17] != 2 || counts[20] != 2 || len(counts) != 2 {
		t.Errorf("after port 18 left loopback mode, 4 packets took %v, want ports 17 and 20 twice each", counts)
	}

	sw.SetLoopback(17, LoopbackOff)
	sw.SetLoopback(20, LoopbackOff)
	if got, tr := tookPort(t, sw); got != RecircPort(1) || tr.Dropped {
		t.Errorf("with no loopback port on pipeline 1 the packet took port %d (dropped %v), want the dedicated %d",
			got, tr.Dropped, RecircPort(1))
	}

	sw.SetLoopback(17, LoopbackOnChip)
	sw.SetLoopback(20, LoopbackOnChip)
	if err := sw.SetPortAdminState(20, false); err != nil {
		t.Fatal(err)
	}
	var dead, delivered int
	for i := 0; i < 4; i++ {
		before := sw.Stats(20).TxPackets.Load()
		tr, err := sw.Inject(0, testPacket())
		switch {
		case err != nil:
			t.Fatal(err)
		case tr.Dropped && tr.DropCode == telemetry.DropRecircDead:
			dead++
		case !tr.Dropped && len(tr.Out) == 1 && tr.Out[0].Port == 1:
			delivered++
		default:
			t.Errorf("packet %d: trace %+v", i, tr)
		}
		if sw.Stats(20).TxPackets.Load() != before {
			t.Errorf("packet %d was counted through dead port 20", i)
		}
	}
	if dead != 2 || delivered != 2 {
		t.Errorf("with down port 20 in the turn: %d dropped as recirc-dead, %d delivered; want 2 and 2", dead, delivered)
	}
}

// Two injectors recirculate while a writer flips a port in and out of
// loopback mode: every packet recirculates through a port that was in
// loopback mode in the snapshot it loaded, so none is emitted through
// the flapping port, none is dropped and every one exits port 1.
func TestRecirculationSpreadingRacesSetLoopback(t *testing.T) {
	sw := recircSwitch(t)
	if err := sw.SetLoopback(17, LoopbackOnChip); err != nil {
		t.Fatal(err)
	}
	var stray atomic.Uint64
	sw.InstallIngress(1, func(c *Ctx) {
		if c.Meta.InPort != 17 && c.Meta.InPort != 18 {
			stray.Add(1)
		}
		c.Meta.OutPort = 1
	})

	const perInjector = 2000
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			mode := LoopbackOff
			if i%2 == 0 {
				mode = LoopbackOnChip
			}
			if err := sw.SetLoopback(18, mode); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var injectors sync.WaitGroup
	var bad atomic.Uint64
	for _, in := range []PortID{0, 2} {
		injectors.Add(1)
		go func(in PortID) {
			defer injectors.Done()
			pkt := testPacket()
			for i := 0; i < perInjector; i++ {
				tr, err := sw.Inject(in, pkt)
				if err != nil || tr.Dropped || tr.Recirculations != 1 || len(tr.Out) != 1 || tr.Out[0].Port != 1 {
					bad.Add(1)
				}
			}
		}(in)
	}
	injectors.Wait()
	close(stop)
	writer.Wait()

	if n := bad.Load(); n != 0 {
		t.Errorf("%d of %d packets did not recirculate once and exit port 1", n, 2*perInjector)
	}
	if n := stray.Load(); n != 0 {
		t.Errorf("%d packets re-entered pipeline 1 through neither loopback port", n)
	}
	if got := sw.Stats(17).TxPackets.Load() + sw.Stats(18).TxPackets.Load(); got != 2*perInjector {
		t.Errorf("loopback ports 17 and 18 carried %d packets, want %d", got, 2*perInjector)
	}
	if got := sw.Stats(RecircPort(1)).TxPackets.Load(); got != 0 {
		t.Errorf("the dedicated port carried %d packets while port 17 was in loopback mode", got)
	}
}
