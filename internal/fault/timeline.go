package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"dejavu/internal/asic"
	"dejavu/internal/packet"
)

// scheduled is an event of either schedule: it fires at a tick and
// renders as one deterministic log line.
type scheduled interface {
	fmt.Stringer
	at() int
}

// timeline is what every injector replays a schedule with: virtual
// time over a tick-sorted schedule, the seeded RNG all randomness flows
// from, and the deterministic event/loss log.
type timeline[E scheduled] struct {
	mu    sync.Mutex
	rng   *rand.Rand
	sched []E
	next  int // index of the first unfired schedule entry
	tick  int

	losses []Loss
	log    []string
}

// newTimeline copies sched sorted by tick; same-tick order is kept.
func newTimeline[E scheduled](seed int64, sched []E) timeline[E] {
	s := append([]E(nil), sched...)
	sort.SliceStable(s, func(i, j int) bool { return s[i].at() < s[j].at() })
	return timeline[E]{rng: rand.New(rand.NewSource(seed)), sched: s}
}

// Done reports whether every scheduled event has fired.
func (t *timeline[E]) Done() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.next >= len(t.sched)
}

// Losses returns the packets the injector destroyed so far.
func (t *timeline[E]) Losses() []Loss {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Loss(nil), t.losses...)
}

// Log returns the deterministic event/loss log, one line per entry.
func (t *timeline[E]) Log() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.log...)
}

// advance moves virtual time forward one tick and returns, logged, the
// events scheduled for it. The caller holds mu.
func (t *timeline[E]) advance() []E {
	t.tick++
	var fired []E
	for ; t.next < len(t.sched) && t.sched[t.next].at() <= t.tick; t.next++ {
		t.log = append(t.log, t.sched[t.next].String())
		fired = append(fired, t.sched[t.next])
	}
	return fired
}

// recordLoss logs one destroyed packet at the current tick. The caller
// holds mu.
func (t *timeline[E]) recordLoss(port asic.PortID, reason string) {
	l := Loss{Tick: t.tick, Port: port, Reason: reason}
	t.losses = append(t.losses, l)
	t.log = append(t.log, l.String())
}

// corruptWire puts the packet on the wire, flips n random bytes — or,
// truncating, cuts n off the end — and reparses it in place. It reports
// false when the mangled bytes no longer parse: the packet is
// destroyed. The caller holds mu.
func (t *timeline[E]) corruptWire(pkt *packet.Parsed, n int, truncate bool) bool {
	wire, err := pkt.Serialize(nil)
	if err != nil || len(wire) == 0 {
		return false
	}
	if truncate {
		wire = wire[:len(wire)-min(n, len(wire)-1)]
	} else {
		for i := 0; i < n; i++ {
			pos := t.rng.Intn(len(wire))
			wire[pos] ^= byte(1 + t.rng.Intn(255))
		}
	}
	var mangled packet.Parsed
	if err := mangled.Parse(wire); err != nil {
		return false
	}
	*pkt = mangled
	return true
}

// positiveOr returns n, or def when n is not positive — the "zero means
// a default" rule of the events' Bytes and Ticks fields.
func positiveOr(n, def int) int {
	if n <= 0 {
		return def
	}
	return n
}
