// Package route implements Dejavu's on-chip packet routing (§3.4): the
// static traversal planner that, given a service chain and an NF
// placement, derives the exact sequence of pipelets a packet visits and
// how many resubmissions/recirculations that costs (the machinery
// behind Fig. 6), and the branching table installed in the last MAU
// stage of every ingress pipelet that realizes those decisions at
// runtime.
package route

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strings"

	"dejavu/internal/asic"
)

// Classifier is the reserved name of the NF that stamps the SFC header
// (Fig. 3) every later hop routes from (§3.3, §3.4), so an untagged
// packet must meet it on the ingress pipe it enters.
const Classifier = "classifier"

// ErrClassifierOffEntry is Plan's refusal of a chain whose classifier
// the switch hosts anywhere but on the entry ingress pipe.
var ErrClassifierOffEntry = errors.New("route: the classifier must sit on the entry ingress pipe")

// Chain is one SFC policy: an ordered list of NF names and the share
// of traffic following it. The service index convention mirrors the
// NSH proposal: a fresh packet carries index len(NFs); NF j (0-based)
// is next when index == len(NFs)-j; the framework decrements the index
// after each NF; index 0 means the chain is complete.
type Chain struct {
	PathID uint16
	NFs    []string
	Weight float64
	// ExitPipeline is the pipeline whose egress ports carry this
	// chain's traffic out of the switch (Fig. 6 fixes this to egress 0).
	ExitPipeline int
	// StaticExitPort, when nonzero, names the front-panel port this
	// chain's traffic statically exits from. It enables the Fig. 6(b)
	// direct-exit optimization: the ingress branching table can send a
	// packet straight to this port while the chain's remaining NFs run
	// in the exit pipeline's egress pipe, saving the final
	// recirculation. Chains whose egress port is chosen dynamically
	// (e.g. by a Router NF) leave it zero and pay that bounce when
	// their last NF sits in an egress pipe.
	StaticExitPort asic.PortID
}

// HasStaticExit reports whether the chain's exit port is known at
// placement time.
func (c Chain) HasStaticExit() bool { return c.StaticExitPort != 0 }

// EqualChains compares two chain sets field by field, order included.
func EqualChains(a, b []Chain) bool {
	return slices.EqualFunc(a, b, func(x, y Chain) bool {
		return x.PathID == y.PathID && x.Weight == y.Weight && x.ExitPipeline == y.ExitPipeline &&
			x.StaticExitPort == y.StaticExitPort && slices.Equal(x.NFs, y.NFs)
	})
}

// InitialIndex returns the service index stamped by the classifier.
func (c Chain) InitialIndex() uint8 { return uint8(len(c.NFs)) }

// EffectiveWeight returns the chain's traffic share for every weighted
// sum: an unset (zero) Weight counts as 1.
func (c Chain) EffectiveWeight() float64 {
	if c.Weight == 0 {
		return 1
	}
	return c.Weight
}

// NFAt returns the name of the next NF for a given service index.
func (c Chain) NFAt(index uint8) (string, bool) {
	if index == 0 || int(index) > len(c.NFs) {
		return "", false
	}
	return c.NFs[len(c.NFs)-int(index)], true
}

// Validate checks structural sanity.
func (c Chain) Validate() error {
	if c.PathID == 0 {
		return fmt.Errorf("route: path ID 0 is reserved for unclassified traffic")
	}
	if len(c.NFs) == 0 {
		return fmt.Errorf("route: chain %d has no NFs", c.PathID)
	}
	if len(c.NFs) > 255 {
		return fmt.Errorf("route: chain %d longer than the 1-byte service index allows", c.PathID)
	}
	if c.Weight < 0 {
		return fmt.Errorf("route: chain %d has negative weight", c.PathID)
	}
	for i, n := range c.NFs {
		if slices.Contains(c.NFs[:i], n) {
			return fmt.Errorf("route: chain %d visits NF %q twice", c.PathID, n)
		}
	}
	return nil
}

// Mode is the composition mode of one pipelet (§3.2).
type Mode uint8

// Composition modes.
const (
	// Sequential places NFs back-to-back: consecutive chain NFs on the
	// pipelet are consumed in a single traversal.
	Sequential Mode = iota
	// Parallel places NFs side-by-side sharing MAUs: each traversal
	// runs exactly one of the pipelet's NFs; reaching a sibling branch
	// costs a resubmission (ingress) or recirculation (egress).
	Parallel
)

// String names the mode.
func (m Mode) String() string {
	if m == Sequential {
		return "sequential"
	}
	return "parallel"
}

// Placement maps every NF name to the pipelet hosting it, plus the
// composition mode of each pipelet.
type Placement struct {
	NF   map[string]asic.PipeletID
	Mode map[asic.PipeletID]Mode
	// Remote maps NFs hosted on another switch of a back-to-back
	// cluster (§7) to the local wire port toward their home, which the
	// branching table forwards to instead of a local pipelet.
	// asic.PortUnset marks a home with no wire from this switch: the
	// branching table punts such an NF's packets to the CPU.
	Remote map[string]asic.PortID
}

// NewPlacement creates an empty placement.
func NewPlacement() *Placement {
	return &Placement{
		NF:     make(map[string]asic.PipeletID),
		Mode:   make(map[asic.PipeletID]Mode),
		Remote: make(map[string]asic.PortID),
	}
}

// AssignRemote marks an NF as hosted off-switch, reached through the
// local wire port toward its home.
func (p *Placement) AssignRemote(name string, port asic.PortID) { p.Remote[name] = port }

// IsRemote reports whether an NF is hosted off-switch.
func (p *Placement) IsRemote(name string) bool {
	_, ok := p.Remote[name]
	return ok
}

// Assign puts an NF on a pipelet.
func (p *Placement) Assign(name string, pl asic.PipeletID) { p.NF[name] = pl }

// SetMode sets a pipelet's composition mode (default Sequential).
func (p *Placement) SetMode(pl asic.PipeletID, m Mode) { p.Mode[pl] = m }

// ModeOf returns the pipelet's composition mode.
func (p *Placement) ModeOf(pl asic.PipeletID) Mode { return p.Mode[pl] }

// Of returns the pipelet hosting an NF.
func (p *Placement) Of(name string) (asic.PipeletID, bool) {
	pl, ok := p.NF[name]
	return pl, ok
}

// NFsOn returns the NF names hosted on a pipelet (unordered).
func (p *Placement) NFsOn(pl asic.PipeletID) []string {
	var out []string
	for n, where := range p.NF {
		if where == pl {
			out = append(out, n)
		}
	}
	return out
}

// Clone deep-copies the placement.
func (p *Placement) Clone() *Placement {
	c := NewPlacement()
	for k, v := range p.NF {
		c.NF[k] = v
	}
	for k, v := range p.Mode {
		c.Mode[k] = v
	}
	for k, v := range p.Remote {
		c.Remote[k] = v
	}
	return c
}

// Equal reports whether two placements assign every NF, pipelet mode
// and remote port alike.
func (p *Placement) Equal(o *Placement) bool {
	return maps.Equal(p.NF, o.NF) && maps.Equal(p.Mode, o.Mode) && maps.Equal(p.Remote, o.Remote)
}

// Validate checks the placement covers a chain and respects the
// profile's pipeline count.
func (p *Placement) Validate(prof asic.Profile, chains []Chain) error {
	for _, c := range chains {
		for _, n := range c.NFs {
			if p.IsRemote(n) {
				continue
			}
			pl, ok := p.NF[n]
			if !ok {
				return fmt.Errorf("route: NF %q of chain %d is not placed", n, c.PathID)
			}
			if pl.Pipeline < 0 || pl.Pipeline >= prof.Pipelines {
				return fmt.Errorf("route: NF %q placed on nonexistent pipeline %d", n, pl.Pipeline)
			}
		}
		if c.ExitPipeline < 0 || c.ExitPipeline >= prof.Pipelines {
			return fmt.Errorf("route: chain %d exits on nonexistent pipeline %d", c.PathID, c.ExitPipeline)
		}
	}
	return nil
}

// Traversal is the static plan for one chain under one placement.
// Steps lists each visit's pipelets in order. A visit that hands the
// packet to a wire ends at its ingress step: the egress pipe the wire
// port sits on runs none of the chain's NFs and is not listed. So a
// visit that runs no NF — before a chain's leading remote NFs, or on a
// switch the chain only crosses — is one lone step, enter's ingress.
type Traversal struct {
	Chain          uint16
	Steps          []asic.PipeletID
	Resubmissions  int
	Recirculations int
}

// Path renders the traversal like the paper's Fig. 6 captions.
func (t Traversal) Path() string {
	parts := make([]string, len(t.Steps))
	for i, s := range t.Steps {
		parts[i] = s.String()
	}
	return strings.Join(parts, " -> ")
}

// Plan computes the pipelet traversal of a chain under a placement,
// following the hardware constraints of §3.3:
//
//   - NFs execute strictly in chain order (the check_nextNF guards).
//   - A packet in ingress q consumes the maximal run of next NFs
//     hosted there (one NF only if the pipelet is Parallel); reaching
//     another NF on the same ingress costs a resubmission.
//   - Moving to any other pipelet goes through the traffic manager by
//     choosing an egress port; en route through egress p the packet
//     consumes next NFs hosted there (one if Parallel).
//   - Continuing after egress processing requires the chosen port to
//     be a loopback port, which bounces the packet into ingress p at
//     the cost of one recirculation. Only when the remaining chain
//     completes within egress p and the chain exits from pipeline p
//     can a real front-panel port be chosen, letting the packet leave
//     without another recirculation (the Fig. 6(b) optimization).
//   - A run of remote NFs ends the visit: the ingress branching table
//     forwards the packet out the wire toward their home (§7). The next
//     local NF starts a new visit at enter's ingress, where the wire
//     delivers the packet back; the round trip costs no recirculation.
//   - A chain's classifier, when hosted on this switch, sits on enter's
//     ingress pipe (ErrClassifierOffEntry).
//
// enter is the pipeline whose ingress pipe receives the packet.
func Plan(c Chain, p *Placement, enter int) (Traversal, error) {
	if err := c.Validate(); err != nil {
		return Traversal{}, err
	}
	if at, ok := p.Of(Classifier); ok && !p.IsRemote(Classifier) && slices.Contains(c.NFs, Classifier) &&
		at != (asic.PipeletID{Pipeline: enter, Dir: asic.Ingress}) {
		return Traversal{}, fmt.Errorf("%w: chain %d has it on %s, traffic enters ingress %d", ErrClassifierOffEntry, c.PathID, at, enter)
	}
	tr := Traversal{Chain: c.PathID, Steps: make([]asic.PipeletID, 0, 2*len(c.NFs)+2)}
	pos := 0 // next NF index in c.NFs
	curr := enter

	place := func(i int) (asic.PipeletID, error) {
		pl, ok := p.Of(c.NFs[i])
		if !ok {
			return asic.PipeletID{}, fmt.Errorf("route: NF %q not placed", c.NFs[i])
		}
		return pl, nil
	}

	// consume advances pos across the maximal run of next NFs hosted on
	// pipelet pl, honoring the composition mode.
	consume := func(pl asic.PipeletID) error {
		ran := 0
		for pos < len(c.NFs) && !p.IsRemote(c.NFs[pos]) {
			at, err := place(pos)
			if err != nil {
				return err
			}
			if at != pl {
				break
			}
			pos++
			ran++
			if p.ModeOf(pl) == Parallel {
				break // one NF per traversal on a parallel pipelet
			}
		}
		return nil
	}

	guard := 0
	for {
		guard++
		if guard > 4*len(c.NFs)+8 {
			return tr, fmt.Errorf("route: traversal for chain %d did not terminate (placement bug?)", c.PathID)
		}
		// Ingress visit.
		ing := asic.PipeletID{Pipeline: curr, Dir: asic.Ingress}
		tr.Steps = append(tr.Steps, ing)
		if err := consume(ing); err != nil {
			return tr, err
		}

		if pos < len(c.NFs) && p.IsRemote(c.NFs[pos]) {
			// Out on the wire; back, if at all, after the remote run.
			for pos < len(c.NFs) && p.IsRemote(c.NFs[pos]) {
				pos++
			}
			if pos >= len(c.NFs) {
				return tr, nil
			}
			curr = enter
			continue
		}
		if pos >= len(c.NFs) {
			// Chain complete in ingress: straight out through the exit
			// egress pipe.
			tr.Steps = append(tr.Steps, asic.PipeletID{Pipeline: c.ExitPipeline, Dir: asic.Egress})
			return tr, nil
		}

		next, err := place(pos)
		if err != nil {
			return tr, err
		}
		if next == ing {
			// Another NF on this same ingress (parallel sibling):
			// resubmit.
			tr.Resubmissions++
			continue
		}

		// Determine whether the remainder completes within egress
		// `next.Pipeline` and exits there (Fig. 6(b) direct exit). The
		// optimization requires the exit port to be known statically:
		// the port is chosen in ingress, before the egress NFs run.
		target := next.Pipeline
		if c.HasStaticExit() &&
			p.ModeOf(asic.PipeletID{Pipeline: target, Dir: asic.Egress}) != Parallel &&
			c.ExitPipeline == target && remainderCompletesIn(c, p, pos, asic.PipeletID{Pipeline: target, Dir: asic.Egress}) {
			eg := asic.PipeletID{Pipeline: target, Dir: asic.Egress}
			tr.Steps = append(tr.Steps, eg)
			if err := consume(eg); err != nil {
				return tr, err
			}
			return tr, nil
		}

		// Otherwise: loopback through egress `target`.
		eg := asic.PipeletID{Pipeline: target, Dir: asic.Egress}
		tr.Steps = append(tr.Steps, eg)
		if err := consume(eg); err != nil {
			return tr, err
		}
		tr.Recirculations++
		curr = target
		if pos >= len(c.NFs) {
			// Chain finished during the egress pass; the bounce into
			// ingress `target` still happens, then the packet exits.
			tr.Steps = append(tr.Steps, asic.PipeletID{Pipeline: curr, Dir: asic.Ingress})
			tr.Steps = append(tr.Steps, asic.PipeletID{Pipeline: c.ExitPipeline, Dir: asic.Egress})
			return tr, nil
		}
	}
}

// remainderCompletesIn reports whether every NF from position pos on is
// hosted on pipelet pl.
func remainderCompletesIn(c Chain, p *Placement, pos int, pl asic.PipeletID) bool {
	for i := pos; i < len(c.NFs); i++ {
		at, ok := p.Of(c.NFs[i])
		if !ok || at != pl {
			return false
		}
	}
	return true
}

// Cost is the weighted objective of §3.3: minimize the weighted sum of
// recirculations over all chains (resubmissions are reported too, as a
// tiebreaker — they recycle ingress slots but not loopback bandwidth).
type Cost struct {
	WeightedRecircs   float64
	WeightedResubmits float64
}

// Less orders costs lexicographically.
func (a Cost) Less(b Cost) bool {
	if a.WeightedRecircs != b.WeightedRecircs {
		return a.WeightedRecircs < b.WeightedRecircs
	}
	return a.WeightedResubmits < b.WeightedResubmits
}

// Evaluate computes the weighted recirculation cost of a placement over
// a set of chains, all entering at the given pipeline.
func Evaluate(chains []Chain, p *Placement, enter int) (Cost, error) {
	var c Cost
	for _, ch := range chains {
		w := ch.EffectiveWeight()
		tr, err := Plan(ch, p, enter)
		if err != nil {
			return Cost{}, err
		}
		c.WeightedRecircs += w * float64(tr.Recirculations)
		c.WeightedResubmits += w * float64(tr.Resubmissions)
	}
	return c, nil
}
