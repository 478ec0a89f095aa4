package asic

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"dejavu/internal/packet"
	"dejavu/internal/telemetry"
)

// batchPackets builds n distinct test packets (varying TTL so traces
// are not trivially identical).
func batchPackets(n int) []*packet.Parsed {
	pkts := make([]*packet.Parsed, n)
	for i := range pkts {
		p := testPacket()
		p.IPv4.TTL = uint8(2 + i%60)
		pkts[i] = p
	}
	return pkts
}

// recircEvery returns an ingress program recirculating every k-th
// packet (by TTL parity) twice through the dedicated port, punting
// every 7th to the CPU, and dropping every 11th — a mix that exercises
// fast path, slow path, CPU and drop accounting inside one batch.
func mixedProgram() StageFunc {
	return func(c *Ctx) {
		ttl := c.Pkt.IPv4.TTL
		switch {
		case ttl%11 == 0:
			c.Meta.Drop = true
		case ttl%7 == 0:
			c.Meta.ToCPU = true
		case ttl%3 == 0 && c.Meta.Passes <= 2:
			c.Meta.OutPort = RecircPort(0)
		default:
			c.Meta.OutPort = 1
		}
	}
}

// TestInjectQuietBatchMatchesSingle is the batch-vs-single equivalence
// gate: the same packets through InjectQuiet one-by-one and through
// one InjectQuietBatch burst must produce identical aggregate
// dispositions, port counters, switch-wide drops, and telemetry
// snapshots.
func TestInjectQuietBatchMatchesSingle(t *testing.T) {
	mk := func() (*Switch, *telemetry.Datapath) {
		s := New(Wedge100B())
		s.InstallIngress(0, mixedProgram())
		tel := telemetry.NewDatapath(s.Profile().Pipelines)
		s.SetTelemetry(tel)
		return s, tel
	}
	sSingle, telSingle := mk()
	sBatch, telBatch := mk()

	pkts := batchPackets(257) // crosses the internal delta-flush boundary
	var want BatchResult
	want.Injected = len(pkts)
	for _, p := range pkts {
		cp := p.Clone()
		q, err := sSingle.InjectQuiet(0, cp)
		switch {
		case err != nil:
			want.Errors++
		case q.Dropped:
			want.Dropped++
		case q.ToCPU > 0:
			want.ToCPU++
		default:
			want.Delivered++
		}
		want.Emitted += q.Emitted
		want.Resubmissions += q.Resubmissions
		want.Recirculations += q.Recirculations
		want.Latency += q.Latency
	}

	got := sBatch.InjectQuietBatch(0, pkts)
	if got.Err != nil {
		t.Fatalf("batch error: %v", got.Err)
	}
	got.Err = want.Err // compared field-by-field below
	if got != want {
		t.Errorf("batch result diverges:\n got %+v\nwant %+v", got, want)
	}
	if a, b := sSingle.Drops(), sBatch.Drops(); a != b {
		t.Errorf("Drops: single=%d batch=%d", a, b)
	}
	for _, p := range []PortID{0, 1, RecircPort(0), PortCPU} {
		sa, sb := sSingle.Stats(p), sBatch.Stats(p)
		if sa.RxPackets.Load() != sb.RxPackets.Load() || sa.TxPackets.Load() != sb.TxPackets.Load() ||
			sa.RxBytes.Load() != sb.RxBytes.Load() || sa.TxBytes.Load() != sb.TxBytes.Load() {
			t.Errorf("port %d stats diverge: single rx=%d/%d tx=%d/%d batch rx=%d/%d tx=%d/%d", p,
				sa.RxPackets.Load(), sa.RxBytes.Load(), sa.TxPackets.Load(), sa.TxBytes.Load(),
				sb.RxPackets.Load(), sb.RxBytes.Load(), sb.TxPackets.Load(), sb.TxBytes.Load())
		}
	}

	a, b := telSingle.Snapshot(), telBatch.Snapshot()
	if a.Delivered != b.Delivered || a.Dropped != b.Dropped || a.ToCPU != b.ToCPU ||
		a.Refused != b.Refused || a.Emitted != b.Emitted {
		t.Errorf("telemetry dispositions diverge:\nsingle %+v\nbatch  %+v", a, b)
	}
	for p := 0; p < a.Pipelines; p++ {
		if a.IngressPasses[p] != b.IngressPasses[p] || a.EgressPasses[p] != b.EgressPasses[p] ||
			a.Recircs[p] != b.Recircs[p] || a.Resubmits[p] != b.Resubmits[p] {
			t.Errorf("pipeline %d counters diverge: single in=%d eg=%d rc=%d rs=%d batch in=%d eg=%d rc=%d rs=%d",
				p, a.IngressPasses[p], a.EgressPasses[p], a.Recircs[p], a.Resubmits[p],
				b.IngressPasses[p], b.EgressPasses[p], b.Recircs[p], b.Resubmits[p])
		}
	}
	if a.Latency.Sum != b.Latency.Sum || a.Latency.Count != b.Latency.Count {
		t.Errorf("latency histogram diverges: single sum=%d n=%d batch sum=%d n=%d",
			a.Latency.Sum, a.Latency.Count, b.Latency.Sum, b.Latency.Count)
	}
}

func TestInjectQuietBatchEmpty(t *testing.T) {
	s := New(Wedge100B())
	if br := s.InjectQuietBatch(0, nil); br != (BatchResult{}) {
		t.Errorf("empty batch = %+v, want zero", br)
	}
}

func TestInjectQuietBatchRefusedPort(t *testing.T) {
	s := New(Wedge100B())
	if err := s.SetPortAdminState(0, false); err != nil {
		t.Fatal(err)
	}
	pkts := batchPackets(5)
	br := s.InjectQuietBatch(0, pkts)
	if br.Err == nil || br.Errors != 5 || br.Delivered != 0 {
		t.Errorf("down port batch = %+v, want 5 errors and an error", br)
	}
	if rx := s.Stats(0).RxPackets.Load(); rx != 0 {
		t.Errorf("refused batch counted %d RxPackets", rx)
	}
	// Loopback and invalid ports refuse the same way.
	if err := s.SetLoopback(2, LoopbackOnChip); err != nil {
		t.Fatal(err)
	}
	if br := s.InjectQuietBatch(2, pkts); br.Err == nil || br.Errors != 5 {
		t.Errorf("loopback port batch = %+v", br)
	}
	if br := s.InjectQuietBatch(PortCPU, pkts); br.Err == nil || br.Errors != 5 {
		t.Errorf("CPU port batch = %+v", br)
	}
}

// rejectOddHook refuses packets with odd TTLs at the port — per-packet
// admission faults inside one batch.
type rejectOddHook struct{}

func (rejectOddHook) OnInject(_ PortID, p *packet.Parsed) error {
	if p.IPv4.TTL%2 == 1 {
		return errRefused
	}
	return nil
}
func (rejectOddHook) OnEmit(PortID, *packet.Parsed) bool        { return true }
func (rejectOddHook) OnRecirculate(PortID, *packet.Parsed) bool { return true }

var errRefused = &refusedError{}

type refusedError struct{}

func (*refusedError) Error() string { return "odd ttl refused" }

func TestInjectQuietBatchPerPacketFaults(t *testing.T) {
	s := New(Wedge100B())
	s.InstallIngress(0, forwardTo(1))
	s.SetFaultHook(rejectOddHook{})
	pkts := batchPackets(10) // TTLs 2..61: 5 odd, 5 even
	var odd, even int
	for _, p := range pkts {
		if p.IPv4.TTL%2 == 1 {
			odd++
		} else {
			even++
		}
	}
	br := s.InjectQuietBatch(0, pkts)
	if br.Errors != odd || br.Delivered != even {
		t.Errorf("batch = %+v, want %d errors, %d delivered", br, odd, even)
	}
	if br.Err == nil {
		t.Error("per-packet fault not surfaced in Err")
	}
	if got := s.Drops(); got != uint64(odd) {
		t.Errorf("Drops = %d, want %d", got, odd)
	}
	if rx := s.Stats(0).RxPackets.Load(); rx != uint64(even) {
		t.Errorf("RxPackets = %d, want %d (refused packets must not count)", rx, even)
	}
}

// TestInjectQuietBatchAllocBudget locks in the batch hot path's
// allocation contract: a steady-state 64-packet burst must cost at
// most 2 allocations per *batch* (0 in practice — i.e. 0 allocs/pkt),
// the same pool-refill allowance the per-packet budget has.
func TestInjectQuietBatchAllocBudget(t *testing.T) {
	s := New(Wedge100B())
	if err := s.InstallIngress(0, forwardTo(1)); err != nil {
		t.Fatal(err)
	}
	s.SetTelemetry(telemetry.NewDatapath(s.Profile().Pipelines))
	pkts := batchPackets(64)
	for i := 0; i < 100; i++ { // warm pools
		s.InjectQuietBatch(0, pkts)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if br := s.InjectQuietBatch(0, pkts); br.Err != nil {
			t.Fatal(br.Err)
		}
	})
	if allocs > 2 {
		t.Errorf("InjectQuietBatch allocates %.2f per 64-pkt batch, budget is 2", allocs)
	}
}

// TestConcurrentBatchHammer runs batched and single-packet injectors
// concurrently with a config-churning control plane — the -race gate
// for the batched path (batches capture one snapshot; swaps land
// between batches).
func TestConcurrentBatchHammer(t *testing.T) {
	prof := Wedge100B()
	s := New(prof)
	s.InstallIngress(0, forwardTo(1))
	s.InstallIngress(1, forwardTo(17))

	const (
		injectors  = 8
		perWorker  = 200
		batchSize  = 32
		totalPkts  = injectors * perWorker * batchSize
		secondPipe = 16
	)
	var accounted [injectors]uint64

	var wg sync.WaitGroup
	for w := 0; w < injectors; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			in := PortID(0)
			if w%2 == 1 {
				in = PortID(secondPipe)
			}
			pkts := batchPackets(batchSize)
			for i := 0; i < perWorker; i++ {
				if w < injectors/2 {
					br := s.InjectQuietBatch(in, pkts)
					accounted[w] += uint64(br.Delivered + br.Dropped + br.ToCPU + br.Errors)
					continue
				}
				for _, p := range pkts {
					q, err := s.InjectQuiet(in, p)
					_ = q
					_ = err
					accounted[w]++
				}
			}
		}(w)
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 4 {
			case 0:
				s.SetPortAdminState(1, i%8 < 4)
			case 1:
				s.SetLoopback(30, LoopbackOnChip)
			case 2:
				s.SetLoopback(30, LoopbackOff)
			case 3:
				s.InstallEgress(0, func(c *Ctx) {})
				s.InstallEgress(0, nil)
			}
		}
	}()

	wg.Wait()
	close(stop)
	churn.Wait()

	var total uint64
	for _, n := range accounted {
		total += n
	}
	if total != totalPkts {
		t.Fatalf("accounted %d of %d packets", total, totalPkts)
	}
}

// TestBatchPortCountersSlotConflict drives a burst whose ports share a
// slot of the burst's port-counter table (the dedicated recirculation
// port of pipeline 0 and front-panel port 32 on a 64-port profile), so
// every packet evicts the other port's tally: the counters must still
// equal the per-packet path's.
func TestBatchPortCountersSlotConflict(t *testing.T) {
	exit, loop := PortID(32), RecircPort(0)
	var d portDelta
	if a, b := d.of(nil, exit), d.of(New(Tofino4()), loop); a != b {
		t.Fatalf("ports %d and %d no longer share a slot; pick a colliding pair", exit, loop)
	}
	mk := func() *Switch {
		s := New(Tofino4())
		s.InstallIngress(0, func(c *Ctx) {
			if c.Meta.Passes == 1 {
				c.Meta.OutPort = loop
			} else {
				c.Meta.OutPort = exit
			}
		})
		return s
	}
	sSingle, sBatch := mk(), mk()
	pkts := batchPackets(100)
	for _, p := range pkts {
		if _, err := sSingle.InjectQuiet(0, p.Clone()); err != nil {
			t.Fatal(err)
		}
	}
	if br := sBatch.InjectQuietBatch(0, pkts); br.Err != nil || br.Delivered != len(pkts) || br.Recirculations != len(pkts) {
		t.Fatalf("batch: %+v", br)
	}
	for _, p := range []PortID{0, exit, loop} {
		sa, sb := sSingle.Stats(p), sBatch.Stats(p)
		if sa.RxPackets.Load() != sb.RxPackets.Load() || sa.TxPackets.Load() != sb.TxPackets.Load() ||
			sa.RxBytes.Load() != sb.RxBytes.Load() || sa.TxBytes.Load() != sb.TxBytes.Load() {
			t.Errorf("port %d stats diverge: single rx=%d/%d tx=%d/%d batch rx=%d/%d tx=%d/%d", p,
				sa.RxPackets.Load(), sa.RxBytes.Load(), sa.TxPackets.Load(), sa.TxBytes.Load(),
				sb.RxPackets.Load(), sb.RxBytes.Load(), sb.TxPackets.Load(), sb.TxBytes.Load())
		}
	}
	if got := sBatch.Stats(exit).TxPackets.Load(); got != uint64(len(pkts)) {
		t.Errorf("exit port transmitted %d, want %d", got, len(pkts))
	}
}

// TestCtxShardsSpreadAndRecycle pins the two properties that keep
// concurrent injectors off each other's counter lines from one run to
// the next: contexts alive together hold different shards (far apart
// while few are taken), and a shard comes back once the collector has
// dropped its context from the pool.
func TestCtxShardsSpreadAndRecycle(t *testing.T) {
	// settle collects until no context holds a shard: every test pairs
	// its pool Gets with Puts, and the pool forgets idle entries after
	// two collections.
	settle := func(when string) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			runtime.GC()
			shardHolders.mu.Lock()
			n := shardHolders.n
			shardHolders.mu.Unlock()
			if n == ([ctxShards]int{}) {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: shards still held after collection: %v", when, n)
			}
		}
	}
	settle("before")
	var live [ctxShards]*Ctx
	var seen [ctxShards]bool
	for i := range live {
		live[i] = ctxPool.New().(*Ctx)
		if s := live[i].shard; seen[s] {
			t.Fatalf("context %d took shard %d, already held by a live context", i, s)
		} else {
			seen[s] = true
		}
	}
	if a, b := live[0].shard, live[1].shard; a != 0 || b != ctxShards/2 {
		t.Errorf("first two contexts hold shards %d and %d, want 0 and %d", a, b, ctxShards/2)
	}
	if extra := ctxPool.New().(*Ctx); extra.shard != shardOrder[0] {
		t.Errorf("ninth context took shard %d, want the first of the order again", extra.shard)
	}
	runtime.KeepAlive(live)
	live = [ctxShards]*Ctx{}
	settle("after")
}
