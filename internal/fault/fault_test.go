package fault

import (
	"reflect"
	"testing"
	"time"

	"dejavu/internal/asic"
	"dejavu/internal/ctl"
	"dejavu/internal/nf"
	"dejavu/internal/packet"
)

func testPacket() *packet.Parsed {
	return packet.NewTCP(packet.TCPOpts{
		Src: packet.IP4{10, 0, 0, 1}, Dst: packet.IP4{10, 0, 0, 2},
		SrcPort: 1000, DstPort: 80,
	})
}

func testOpts() ScheduleOpts {
	return ScheduleOpts{
		Ticks:       40,
		FlapPorts:   []asic.PortID{4, 5, 6, 7},
		WirePorts:   []asic.PortID{1, 2, 3},
		RecircPorts: []asic.PortID{16, 17},
		Tables:      []TableRef{{NF: "router", Table: "ipv4_lpm"}, {NF: "lb", Table: "lb_session"}},
	}
}

func TestRandomScheduleDeterministic(t *testing.T) {
	a := RandomSchedule(7, testOpts())
	b := RandomSchedule(7, testOpts())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	c := RandomSchedule(8, testOpts())
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds produced identical schedules")
	}
	// Self-consistency: PortUp only ever revives a downed port.
	down := make(map[asic.PortID]bool)
	for _, ev := range a {
		switch ev.Kind {
		case PortDown:
			if down[ev.Port] {
				t.Errorf("t%d: port %d downed twice", ev.Tick, ev.Port)
			}
			down[ev.Port] = true
		case PortUp:
			if !down[ev.Port] {
				t.Errorf("t%d: port %d upped while up", ev.Tick, ev.Port)
			}
			down[ev.Port] = false
		}
	}
}

// replay drives one injector over a fresh switch, pushing a packet per
// tick, and returns every event it fired and every loss it recorded.
// The switch takes no port flap: applying those is the soak target's
// job, not the injector's.
func replay(t *testing.T, seed int64) ([]Event, []Loss) {
	t.Helper()
	sw := asic.New(asic.Wedge100B())
	sw.InstallIngress(0, func(ctx *asic.Ctx) { ctx.Meta.OutPort = 3 })
	sw.InstallIngress(1, func(ctx *asic.Ctx) { ctx.Meta.OutPort = 3 })
	inj := NewInjector(seed, RandomSchedule(seed, testOpts()))
	sw.SetFaultHook(inj)
	var fired []Event
	for tick := 0; tick < 45; tick++ {
		fired = append(fired, inj.Advance()...)
		sw.Inject(2, testPacket())
	}
	return fired, inj.Losses()
}

func TestInjectorReplayDeterministic(t *testing.T) {
	evA, lossA := replay(t, 11)
	evB, lossB := replay(t, 11)
	if !reflect.DeepEqual(evA, evB) || !reflect.DeepEqual(lossA, lossB) {
		t.Fatalf("same seed+schedule diverged:\n%v %v\nvs\n%v %v", evA, lossA, evB, lossB)
	}
	if want := RandomSchedule(11, testOpts()); !reflect.DeepEqual(evA, []Event(want)) {
		t.Errorf("fired %v, want the whole schedule %v", evA, want)
	}
	if len(lossA) == 0 {
		t.Error("replay destroyed no packet; the loss comparison is vacuous")
	}
}

// TestInjectorPortFlap: a port flap fires at its tick and touches no
// switch — TestChaosAppliesPortFlaps (core) holds the soak target that
// applies it.
func TestInjectorPortFlap(t *testing.T) {
	inj := NewInjector(1, Schedule{
		{Tick: 1, Kind: PortDown, Port: 5},
		{Tick: 3, Kind: PortUp, Port: 5},
	})
	if evs := inj.Advance(); len(evs) != 1 || evs[0].Kind != PortDown {
		t.Fatalf("tick 1 events = %v", evs)
	}
	if evs := inj.Advance(); len(evs) != 0 {
		t.Fatalf("tick 2 events = %v, want none", evs)
	}
	if evs := inj.Advance(); len(evs) != 1 || evs[0].Kind != PortUp {
		t.Fatalf("tick 3 events = %v", evs)
	}
	if !inj.Done() {
		t.Error("schedule not drained")
	}
}

func TestInjectorCorruptIsOneShotAndDeterministic(t *testing.T) {
	run := func() (first, second *packet.Parsed, fired []Event, losses []Loss) {
		sw := asic.New(asic.Wedge100B())
		sw.InstallIngress(0, func(ctx *asic.Ctx) { ctx.Meta.OutPort = 3 })
		inj := NewInjector(5, Schedule{{Tick: 1, Kind: Corrupt, Port: 3, Bytes: 2}})
		sw.SetFaultHook(inj)
		fired = inj.Advance()
		tr1, err := sw.Inject(2, testPacket())
		if err != nil {
			t.Fatal(err)
		}
		tr2, err := sw.Inject(2, testPacket())
		if err != nil {
			t.Fatal(err)
		}
		if len(tr1.Out) == 1 {
			first = tr1.Out[0].Pkt
		}
		if len(tr2.Out) != 1 {
			t.Fatal("second (clean) packet lost")
		}
		return first, tr2.Out[0].Pkt, fired, inj.Losses()
	}
	f1, s1, ev1, loss1 := run()
	f2, _, ev2, loss2 := run()
	if !reflect.DeepEqual(ev1, ev2) || !reflect.DeepEqual(loss1, loss2) {
		t.Fatal("corruption runs diverged")
	}
	if len(ev1) != 1 || ev1[0].Kind != Corrupt {
		t.Fatalf("fired %v, want the one corrupt event", ev1)
	}
	// Second packet is untouched (one-shot fault).
	w, _ := s1.Serialize(nil)
	wClean, _ := testPacket().Serialize(nil)
	if string(w) != string(wClean) {
		t.Error("one-shot corrupt hit the second packet too")
	}
	// The corrupted packet (when it survived parsing) is identical
	// across runs.
	if f1 != nil && f2 != nil {
		w1, _ := f1.Serialize(nil)
		w2, _ := f2.Serialize(nil)
		if string(w1) != string(w2) {
			t.Error("corruption not deterministic")
		}
	}
}

func TestInjectorTruncateDestroysPacket(t *testing.T) {
	sw := asic.New(asic.Wedge100B())
	sw.InstallIngress(0, func(ctx *asic.Ctx) { ctx.Meta.OutPort = 3 })
	// Truncating most of the packet must make it unparseable.
	inj := NewInjector(5, Schedule{{Tick: 1, Kind: Truncate, Port: 3, Bytes: 1000}})
	sw.SetFaultHook(inj)
	inj.Advance()
	tr, err := sw.Inject(2, testPacket())
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Dropped {
		t.Fatalf("destroyed packet still delivered: %+v", tr.Out)
	}
	losses := inj.Losses()
	if len(losses) != 1 || losses[0].Port != 3 {
		t.Errorf("loss not recorded: %v", losses)
	}
}

func TestInjectorRecircOverload(t *testing.T) {
	sw := asic.New(asic.Wedge100B())
	if err := sw.SetLoopback(8, asic.LoopbackOnChip); err != nil {
		t.Fatal(err)
	}
	sw.InstallIngress(0, func(ctx *asic.Ctx) {
		if ctx.Meta.Passes == 1 {
			ctx.Meta.OutPort = 8
		} else {
			ctx.Meta.OutPort = 3
		}
	})
	inj := NewInjector(1, Schedule{{Tick: 1, Kind: RecircOverload, Port: 8, Ticks: 1}})
	sw.SetFaultHook(inj)
	inj.Advance()
	// During the window every other recirculation drops: 1st lost, 2nd
	// delivered, 3rd lost, 4th delivered.
	var dropped, delivered int
	for i := 0; i < 4; i++ {
		tr, err := sw.Inject(2, testPacket())
		if err != nil {
			t.Fatal(err)
		}
		if tr.Dropped {
			dropped++
		} else {
			delivered++
		}
	}
	if dropped != 2 || delivered != 2 {
		t.Errorf("overload window: dropped=%d delivered=%d, want 2/2", dropped, delivered)
	}
	// Window over: everything flows.
	inj.Advance()
	tr, err := sw.Inject(2, testPacket())
	if err != nil || tr.Dropped {
		t.Fatalf("traffic broken after overload window: %v", err)
	}
	if got := len(inj.Losses()); got != 2 {
		t.Errorf("losses = %d, want 2", got)
	}
}

// applyCounter is an Applier double counting real applications.
type applyCounter struct {
	applies int
	err     error
}

func (a *applyCounter) Apply(w ctl.TableWrite) error {
	if a.err != nil {
		return a.err
	}
	a.applies++
	return nil
}

func TestDriverRetriesTransientFailure(t *testing.T) {
	inj := NewInjector(1, Schedule{{Tick: 1, Kind: TableWriteFail, NF: "router", Table: "ipv4_lpm", Failures: 2}})
	inj.Advance()
	inner := &applyCounter{}
	var backoffs []time.Duration
	d := NewDriver(NewFlakyApplier(inner, inj))
	d.Sleep = func(dur time.Duration) { backoffs = append(backoffs, dur) }

	w := ctl.TableWrite{NF: "router", Table: "ipv4_lpm"}
	if err := d.Apply(w); err != nil {
		t.Fatalf("write not retried to success: %v", err)
	}
	if inner.applies != 1 {
		t.Errorf("applies = %d, want exactly 1", inner.applies)
	}
	// Two failures → two retries with doubling backoff.
	if len(backoffs) != 2 || backoffs[1] != 2*backoffs[0] {
		t.Errorf("backoffs = %v, want exponential pair", backoffs)
	}
	st := d.Stats()
	if st.Writes != 1 || st.Retries != 2 || st.Failures != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDriverExhaustsPermanentFailure(t *testing.T) {
	inj := NewInjector(1, Schedule{{Tick: 1, Kind: TableWriteFail, NF: "lb", Table: "lb_session", Failures: -1}})
	inj.Advance()
	inner := &applyCounter{}
	d := NewDriver(NewFlakyApplier(inner, inj))
	d.MaxAttempts = 3
	d.Sleep = func(time.Duration) {}

	err := d.Apply(ctl.TableWrite{NF: "lb", Table: "lb_session"})
	if err == nil {
		t.Fatal("permanent failure retried to success")
	}
	if inner.applies != 0 {
		t.Errorf("failed write applied %d times", inner.applies)
	}
	if st := d.Stats(); st.Failures != 1 || st.Retries != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestDriverAmbiguousFailureIsIdempotent(t *testing.T) {
	// The write commits but the ack is lost; the retry must succeed
	// WITHOUT applying the write a second time.
	sw := asic.New(asic.Wedge100B())
	router := nf.NewRouter()
	ctrl := ctl.New(sw, nf.List{router})
	inj := NewInjector(1, Schedule{{Tick: 1, Kind: TableWriteFail, NF: "router", Table: "ipv4_lpm", Failures: 1, Ambiguous: true}})
	inj.Advance()
	d := NewDriver(NewFlakyApplier(ctrl, inj))
	d.Sleep = func(time.Duration) {}

	w := ctl.TableWrite{NF: "router", Table: "ipv4_lpm", Args: []any{
		packet.IP4{10, 0, 0, 0}, 8, nf.NextHop{Port: 3},
	}}
	if err := d.Apply(w); err != nil {
		t.Fatalf("ambiguous failure not recovered: %v", err)
	}
	if got := router.Routes(); got != 1 {
		t.Fatalf("routes = %d, want exactly 1 (no double apply)", got)
	}
}

func TestDriverDoesNotRetryNonTransientErrors(t *testing.T) {
	inj := NewInjector(1, nil)
	inner := &applyCounter{err: ctl.New(asic.New(asic.Wedge100B()), nil).Apply(ctl.TableWrite{NF: "ghost"})}
	_ = inner.err // a plain (non-transient) controller error
	d := NewDriver(NewFlakyApplier(inner, inj))
	calls := 0
	d.Sleep = func(time.Duration) { calls++ }
	if err := d.Apply(ctl.TableWrite{NF: "ghost", Table: "x"}); err == nil {
		t.Fatal("bad write accepted")
	}
	if calls != 0 {
		t.Errorf("non-transient error retried %d times", calls)
	}
	if st := d.Stats(); st.Failures != 1 {
		t.Errorf("stats = %+v", st)
	}
}
