package asic

import (
	"sync"
	"sync/atomic"
	"testing"

	"dejavu/internal/packet"
)

func TestInjectQuietMatchesInject(t *testing.T) {
	mk := func() *Switch {
		s := New(Wedge100B())
		// Two recirculations through the dedicated port, then out.
		s.InstallIngress(0, func(c *Ctx) {
			if c.Meta.Passes <= 2 {
				c.Meta.OutPort = RecircPort(0)
				return
			}
			c.Meta.OutPort = 1
		})
		return s
	}

	sTraced, sQuiet := mk(), mk()
	tr, err := sTraced.Inject(0, testPacket())
	if err != nil {
		t.Fatal(err)
	}
	q, err := sQuiet.InjectQuiet(0, testPacket())
	if err != nil {
		t.Fatal(err)
	}

	if q.Dropped != tr.Dropped || q.DropReason != tr.DropReason {
		t.Errorf("disposition mismatch: quiet=%+v traced dropped=%v (%s)", q, tr.Dropped, tr.DropReason)
	}
	if q.Emitted != len(tr.Out) {
		t.Errorf("Emitted = %d, traced Out has %d", q.Emitted, len(tr.Out))
	}
	if q.Recirculations != tr.Recirculations || q.Resubmissions != tr.Resubmissions {
		t.Errorf("recircs/resubmits: quiet=%d/%d traced=%d/%d",
			q.Recirculations, q.Resubmissions, tr.Recirculations, tr.Resubmissions)
	}
	if q.Latency != tr.Latency {
		t.Errorf("Latency: quiet=%v traced=%v", q.Latency, tr.Latency)
	}
	// Both switches must account identically.
	for _, p := range []PortID{0, 1, RecircPort(0)} {
		if a, b := sTraced.Stats(p).TxPackets.Load(), sQuiet.Stats(p).TxPackets.Load(); a != b {
			t.Errorf("port %d TxPackets: traced=%d quiet=%d", p, a, b)
		}
	}
}

func TestInjectQuietDropDisposition(t *testing.T) {
	s := New(Wedge100B())
	s.InstallIngress(0, func(c *Ctx) { c.Meta.Drop = true })
	q, err := s.InjectQuiet(0, testPacket())
	if err != nil {
		t.Fatal(err)
	}
	if !q.Dropped || q.DropReason != "dropped in ingress" {
		t.Errorf("QuietResult = %+v, want ingress drop", q)
	}
	if s.Drops() != 1 {
		t.Errorf("Drops = %d", s.Drops())
	}
}

func TestInjectQuietToCPU(t *testing.T) {
	s := New(Wedge100B())
	s.InstallIngress(0, func(c *Ctx) { c.Meta.ToCPU = true })
	q, err := s.InjectQuiet(0, testPacket())
	if err != nil {
		t.Fatal(err)
	}
	if q.ToCPU != 1 || q.Dropped {
		t.Errorf("QuietResult = %+v, want ToCPU=1", q)
	}
	if got := len(s.DrainCPU()); got != 1 {
		t.Errorf("cpu queue has %d packets, want 1", got)
	}
}

func TestInjectQuietRefusedPort(t *testing.T) {
	s := New(Wedge100B())
	if err := s.SetPortAdminState(0, false); err != nil {
		t.Fatal(err)
	}
	q, err := s.InjectQuiet(0, testPacket())
	if err == nil {
		t.Fatal("down port accepted quiet traffic")
	}
	if !q.Dropped {
		t.Errorf("refused injection not marked dropped: %+v", q)
	}
}

// TestInjectQuietAllocBudget locks in the committed hot-path budget:
// steady-state InjectQuiet allocates nothing per packet (AllocsPerRun
// averages over the runs, so a pool refill after a GC does not show).
// CI fails this test if the hot path regresses.
func TestInjectQuietAllocBudget(t *testing.T) {
	s := New(Wedge100B())
	if err := s.InstallIngress(0, forwardTo(1)); err != nil {
		t.Fatal(err)
	}
	pkt := testPacket()
	// Warm the pools.
	for i := 0; i < 1000; i++ {
		if _, err := s.InjectQuiet(0, pkt); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(5000, func() {
		if _, err := s.InjectQuiet(0, pkt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("InjectQuiet allocates %.2f/op, budget is 0", allocs)
	}
}

// TestInjectQuietRecircAllocBudget extends the budget to the
// recirculating path.
func TestInjectQuietRecircAllocBudget(t *testing.T) {
	s := New(Wedge100B())
	s.InstallIngress(0, func(c *Ctx) {
		if c.Meta.Passes <= 3 {
			c.Meta.OutPort = RecircPort(0)
			return
		}
		c.Meta.OutPort = 1
	})
	pkt := testPacket()
	for i := 0; i < 1000; i++ {
		if _, err := s.InjectQuiet(0, pkt); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(2000, func() {
		if _, err := s.InjectQuiet(0, pkt); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("recirculating InjectQuiet allocates %.2f/op, budget is 0", allocs)
	}
}

// atomicHook is a thread-safe FaultHook for the concurrency tests
// (the countingHook double uses plain ints and would race here).
type atomicHook struct {
	injects atomic.Uint64
}

func (h *atomicHook) OnInject(PortID, *packet.Parsed) error {
	h.injects.Add(1)
	return nil
}
func (h *atomicHook) OnEmit(PortID, *packet.Parsed) bool        { return true }
func (h *atomicHook) OnRecirculate(PortID, *packet.Parsed) bool { return true }

// TestConcurrentInjectHammer locks in the snapshot refactor: many
// goroutines inject (traced and quiet) while a control-plane goroutine
// churns loopback modes, admin state, fault hooks and pipelet
// programs. Run under -race this catches any unprotected shared state
// on the packet path; functionally, every packet must end accounted —
// emitted, dropped, punted, or refused at the port.
func TestConcurrentInjectHammer(t *testing.T) {
	prof := Wedge100B()
	s := New(prof)
	// Pipeline 0 forwards to port 1; pipeline 1 recirculates once
	// through its dedicated port then exits via port 17.
	s.InstallIngress(0, forwardTo(1))
	s.InstallIngress(1, func(c *Ctx) {
		if c.Meta.Passes == 1 {
			c.Meta.OutPort = RecircPort(1)
			return
		}
		c.Meta.OutPort = 17
	})

	const (
		injectors = 8
		perWorker = 2000
	)
	var emitted, dropped, cpu, refused atomic.Uint64

	var wg sync.WaitGroup
	// Injection workers: half quiet, half traced, split across the two
	// pipelines.
	for w := 0; w < injectors; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := PortID(0)
			if w%2 == 1 {
				in = PortID(prof.PortsPerPipeline) // pipeline 1
			}
			pkt := testPacket()
			for i := 0; i < perWorker; i++ {
				if w < injectors/2 {
					q, err := s.InjectQuiet(in, pkt)
					switch {
					case err != nil:
						refused.Add(1)
					case q.Dropped:
						dropped.Add(1)
					case q.ToCPU > 0:
						cpu.Add(1)
					default:
						emitted.Add(uint64(q.Emitted))
					}
					continue
				}
				tr, err := s.Inject(in, pkt)
				switch {
				case err != nil:
					refused.Add(1)
				case tr.Dropped:
					dropped.Add(1)
				case len(tr.CPU) > 0:
					cpu.Add(1)
				default:
					emitted.Add(uint64(len(tr.Out)))
				}
			}
		}(w)
	}

	// Churn goroutine: flip config that the packet path reads.
	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		hook := &atomicHook{}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 6 {
			case 0:
				s.SetLoopback(30, LoopbackOnChip) // unused port: mode flaps freely
			case 1:
				s.SetLoopback(30, LoopbackOff)
			case 2:
				s.SetPortAdminState(1, i%12 < 6) // egress of pipeline 0 flaps
			case 3:
				s.SetFaultHook(hook)
			case 4:
				s.SetFaultHook(nil)
			case 5:
				s.InstallEgress(0, func(c *Ctx) {}) // swap a no-op egress in and out
				s.InstallEgress(0, nil)
			}
		}
	}()

	wg.Wait()
	close(stop)
	churn.Wait()

	total := emitted.Load() + dropped.Load() + cpu.Load() + refused.Load()
	if total != injectors*perWorker {
		t.Fatalf("accounted %d of %d packets (emitted=%d dropped=%d cpu=%d refused=%d)",
			total, injectors*perWorker, emitted.Load(), dropped.Load(), cpu.Load(), refused.Load())
	}
	if emitted.Load() == 0 {
		t.Error("hammer emitted nothing — churn wedged the datapath")
	}
}

// TestSnapshotConsistencyPerPacket exercises the RCU property: a
// packet in flight reads one snapshot for its whole traversal, so
// rapid fault-hook swaps during recirculation must never wedge or
// error a packet that was admitted cleanly.
func TestSnapshotConsistencyPerPacket(t *testing.T) {
	s := New(Wedge100B())
	s.InstallIngress(0, func(c *Ctx) {
		if c.Meta.Passes == 1 {
			c.Meta.OutPort = RecircPort(0)
			return
		}
		c.Meta.OutPort = 1
	})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		h := &atomicHook{}
		for {
			select {
			case <-stop:
				return
			default:
			}
			s.SetFaultHook(h)
			s.SetFaultHook(nil)
		}
	}()

	pkt := testPacket()
	for i := 0; i < 5000; i++ {
		if _, err := s.InjectQuiet(0, pkt); err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestTracePathLongTraversal(t *testing.T) {
	// Drive the trace to the 64-pass budget and check Path() against
	// the naive concatenation it replaced (regression for the O(n²)
	// string build).
	s := New(Wedge100B())
	s.InstallIngress(0, func(c *Ctx) { c.Meta.OutPort = RecircPort(0) })
	tr, err := s.Inject(0, testPacket())
	if err == nil {
		t.Fatal("endless recirculation did not exhaust the pass budget")
	}
	if len(tr.Steps) < maxPasses {
		t.Fatalf("trace has %d steps, want >= %d", len(tr.Steps), maxPasses)
	}
	want := ""
	for i, st := range tr.Steps {
		if i > 0 {
			want += " -> "
		}
		want += st.Pipelet.String()
	}
	if got := tr.Path(); got != want {
		t.Errorf("Path() diverges from step list:\n got %q\nwant %q", got, want)
	}
}

func TestStatsOutOfProfilePort(t *testing.T) {
	// The preallocated counter tables cover profile ports; arbitrary
	// IDs must still return a stable counter (cold overflow map).
	s := New(Wedge100B())
	odd := PortID(0x700)
	st := s.Stats(odd)
	st.RxPackets.Add(3)
	if again := s.Stats(odd); again.RxPackets.Load() != 3 {
		t.Errorf("out-of-profile stats not stable: %d", again.RxPackets.Load())
	}
}
