package core

import (
	"fmt"
	"maps"
	"slices"

	"dejavu/internal/asic"
	"dejavu/internal/pipeline"
	"dejavu/internal/route"
)

// This file implements the operational concerns §7 raises ("service
// upgrade and expansion, failure handling"): live chain updates that
// recompose and atomically swap the pipelet programs on the running
// switch, and loopback-port failure handling with capacity
// re-analysis.

// Update is a target state for a running deployment: the chain set
// plus the settings a live update can change without a redeploy. Every
// change to a running switch is one: staged (validate, derive the
// placement, build against a copy of the artifact cache, diff, DV009),
// then — unless it is a dry run — committed.
type Update struct {
	Chains []route.Chain
	// Pin, Optimizer, AnnealSeed and StrictLint replace the live
	// Config's on commit.
	Pin        map[string]asic.PipeletID
	Optimizer  Optimizer
	AnnealSeed int64
	StrictLint bool
	// Replace re-resolves the whole placement from the optimizer. The
	// default keeps every live NF where it is (moving one disrupts its
	// traffic), which is exactly wrong when a hint or the optimizer
	// choice changed: the operator's declared intent is to move them.
	Replace bool
}

// keep is the update to chains under the live settings.
func (d *Deployment) keep(chains []route.Chain) Update {
	c := d.Config
	return Update{Chains: chains, Pin: c.Pin, Optimizer: c.Optimizer, AnnealSeed: c.AnnealSeed, StrictLint: c.StrictLint}
}

// AddChain introduces a new service chain into the running deployment:
// NFs it introduces are placed, the pipelet programs are recomposed and
// verified against the stage budget, and the switch is updated in
// place. NF state (sessions, routes, ACLs) is untouched.
func (d *Deployment) AddChain(c route.Chain) error {
	for _, existing := range d.Config.Chains {
		if existing.PathID == c.PathID {
			return fmt.Errorf("core: chain %d already deployed", c.PathID)
		}
	}
	return d.Reconfigure(append(slices.Clone(d.Config.Chains), c))
}

// RemoveChain retires a service chain. NFs that no longer appear in
// any chain are removed from the placement.
func (d *Deployment) RemoveChain(pathID uint16) error {
	chains := slices.DeleteFunc(slices.Clone(d.Config.Chains), func(c route.Chain) bool { return c.PathID == pathID })
	switch {
	case len(chains) == len(d.Config.Chains):
		return fmt.Errorf("core: chain %d is not deployed", pathID)
	case len(chains) == 0:
		return fmt.Errorf("core: refusing to remove the last chain %d", pathID)
	}
	return d.Reconfigure(chains)
}

// Reconfigure transitions the running deployment to an entirely new
// chain set in one hot swap under the live settings.
func (d *Deployment) Reconfigure(chains []route.Chain) error {
	return d.Apply(d.keep(chains))
}

// PlanReconfigure dry-runs Reconfigure. This is what `dejavu plan -to`
// prints.
func (d *Deployment) PlanReconfigure(chains []route.Chain) (*pipeline.Result, []route.EntryOp, error) {
	return d.Plan(d.keep(chains))
}

// Apply stages u and commits it to the live switch.
func (d *Deployment) Apply(u Update) error {
	st, err := d.stage(u)
	if err != nil {
		return err
	}
	return d.commit(st)
}

// Plan dry-runs Apply: the staged build and the branching-table delta
// a real update would push, with the deployment, its artifact cache and
// the switch untouched. It fails exactly where Apply would before its
// first write.
func (d *Deployment) Plan(u Update) (*pipeline.Result, []route.EntryOp, error) {
	st, err := d.stage(u)
	if err != nil {
		return nil, nil, err
	}
	return st.next.Res, st.delta, nil
}

// staged is an update computed but not yet on the switch.
type staged struct {
	cfg   Config // the live Config with the update's chains and settings
	next  pipeline.Installed
	delta []route.EntryOp
}

// stage computes everything an update needs short of touching the
// switch or the deployment.
func (d *Deployment) stage(u Update) (*staged, error) {
	if len(u.Chains) == 0 {
		return nil, fmt.Errorf("core: refusing to reconfigure to zero chains")
	}
	cfg := d.Config
	cfg.Chains, cfg.Pin, cfg.Optimizer, cfg.AnnealSeed, cfg.StrictLint = u.Chains, u.Pin, u.Optimizer, u.AnnealSeed, u.StrictLint
	for _, c := range cfg.Chains {
		if err := c.Validate(); err != nil {
			return nil, err
		}
		for _, n := range c.NFs {
			if cfg.NFs.ByName(n) == nil {
				return nil, fmt.Errorf("core: chain %d references unknown NF %q", c.PathID, n)
			}
		}
	}
	placement, err := d.derivePlacement(cfg, u.Replace)
	if err != nil {
		return nil, err
	}
	if err := placement.Validate(cfg.Prof, cfg.Chains); err != nil {
		return nil, err
	}
	st := &staged{cfg: cfg}
	if st.next, st.delta, err = d.installed.Stage(buildInputs(cfg, placement)); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return st, nil
}

// derivePlacement is an update's one fork. Unless asked to re-resolve,
// it extends the running placement the way live updates must: existing
// NFs stay where they are, NFs no chain uses anymore are unplaced, and
// each NF the new set introduces is placed greedily, in chain order.
func (d *Deployment) derivePlacement(cfg Config, replace bool) (*route.Placement, error) {
	if replace {
		placement, _, err := pipeline.ResolvePlacement(buildInputs(cfg, nil))
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		return placement, nil
	}
	placement := d.Placement.Clone()
	still := make(map[string]bool)
	for _, c := range cfg.Chains {
		for _, n := range c.NFs {
			still[n] = true
		}
	}
	maps.DeleteFunc(placement.NF, func(name string, _ asic.PipeletID) bool { return !still[name] })
	for _, c := range cfg.Chains {
		for _, n := range c.NFs {
			if _, ok := placement.Of(n); ok {
				continue
			}
			if err := placeNewNF(cfg, placement, n); err != nil {
				return nil, err
			}
		}
	}
	return placement, nil
}

// placeNewNF puts one unplaced NF on the pipelet that minimizes the cost
// of the chains fully placed once it is. Stage feasibility is verified
// by the build that follows.
func placeNewNF(cfg Config, placement *route.Placement, name string) error {
	unplaced := func(n string) bool {
		_, ok := placement.Of(n)
		return !ok && n != name
	}
	ready := slices.DeleteFunc(slices.Clone(cfg.Chains), func(c route.Chain) bool {
		return slices.ContainsFunc(c.NFs, unplaced)
	})
	var best asic.PipeletID
	var bestCost route.Cost
	found := false
	for _, pl := range cfg.Prof.Pipelets() {
		cand := placement.Clone()
		cand.Assign(name, pl)
		cost, err := route.Evaluate(ready, cand, cfg.Enter)
		if err == nil && (!found || cost.Less(bestCost)) {
			best, bestCost, found = pl, cost, true
		}
	}
	if !found {
		return fmt.Errorf("core: no feasible pipelet for new NF %q", name)
	}
	placement.Assign(name, best)
	return nil
}

// commit puts a staged build on the switch as its minimal write-set
// (pipeline.Installed.Commit) through the retrying driver, and adopts
// settings, placement, plans and reports together once it succeeded.
// Every commit after the initial deploy's is a hot swap.
func (d *Deployment) commit(st *staged) error {
	res := st.next.Res
	if res.RoutingRebuilt {
		// A fresh Branching generation needs the loopback spreader; a
		// cached one already carries it (and is live — don't re-set).
		res.Composer.Branching.SetLoopbackChooser(d.loops.choose)
		res.Composer.Branching.SetLoopbackPeek(d.loops.peek)
	}
	swap := d.installed.Res != nil
	if err := d.installed.Commit(d.Switch, d.Controller, d.Driver.Apply, st.next, st.delta); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	d.adopt(st)
	if swap {
		d.Rebuild.ObserveSwap(len(st.delta), len(res.ChangedFuncs))
	}
	return nil
}

// PortDownReport describes the impact of a failed port.
type PortDownReport struct {
	Port asic.PortID
	// WasLoopback reports whether the port carried recirculation
	// bandwidth.
	WasLoopback bool
	// LostLoopbackGbps is the recirculation bandwidth lost.
	LostLoopbackGbps float64
	// AffectedChains lists chains whose static exit port died.
	AffectedChains []uint16
	// RemainingLoopbackGbps is the post-failure recirculation budget.
	RemainingLoopbackGbps float64
	// SustainableOfferedGbps is the offered load the remaining loopback
	// budget sustains losslessly at the deployment's weighted
	// recirculation count.
	SustainableOfferedGbps float64
}

// HandlePortDown processes a front-panel port failure: loopback
// bandwidth is re-budgeted and chains that statically exit through the
// dead port are reported so the operator (or controller) can re-point
// them. A port already handled is rejected — capacity must never be
// decremented twice for one failure.
func (d *Deployment) HandlePortDown(port asic.PortID) (PortDownReport, error) {
	if !d.Config.Prof.ValidPort(port) || asic.IsRecircPort(port) || port == asic.PortCPU {
		return PortDownReport{}, fmt.Errorf("core: port %d is not a front-panel port", port)
	}
	if _, gone := d.dead[port]; gone {
		return PortDownReport{}, fmt.Errorf("core: port %d is already down", port)
	}
	rep := PortDownReport{Port: port}
	if d.dead == nil {
		d.dead = make(map[asic.PortID]deadPort)
	}
	if d.Switch.LoopbackModeOf(port) != asic.LoopbackOff {
		rep.WasLoopback = true
		rep.LostLoopbackGbps = d.Config.Prof.PortGbps
		if err := d.Switch.SetLoopback(port, asic.LoopbackOff); err != nil {
			return rep, err
		}
		// Update the capacity bookkeeping.
		d.Config.LoopbackPorts = slices.DeleteFunc(slices.Clone(d.Config.LoopbackPorts),
			func(p asic.PortID) bool { return p == port })
		d.Capacity.LoopbackPorts = len(d.Config.LoopbackPorts)
		// Take it out of the recirculation rotation so no traffic is
		// steered into a dead port.
		d.loops.remove(port, d.Config.Prof.PipelineOf(port))
	}
	// The failed port no longer serves external traffic either.
	d.Capacity.TotalPorts--
	d.dead[port] = deadPort{wasLoopback: rep.WasLoopback}
	for _, c := range d.Config.Chains {
		if c.StaticExitPort == port {
			rep.AffectedChains = append(rep.AffectedChains, c.PathID)
		}
	}
	rep.RemainingLoopbackGbps = d.LoopbackGbps()
	k := d.WeightedRecirculations()
	if k > 0 {
		rep.SustainableOfferedGbps = rep.RemainingLoopbackGbps / k
	} else {
		rep.SustainableOfferedGbps = d.Capacity.ExternalGbps()
	}
	return rep, nil
}

// PortUpReport describes the effect of a recovered port.
type PortUpReport struct {
	Port asic.PortID
	// RestoredLoopback reports whether the port resumed its
	// recirculation role.
	RestoredLoopback bool
	// RestoredLoopbackGbps is the recirculation bandwidth regained.
	RestoredLoopbackGbps float64
	// RemainingLoopbackGbps is the post-recovery recirculation budget.
	RemainingLoopbackGbps float64
}

// HandlePortUp is the recovery inverse of HandlePortDown: the port
// returns to capacity bookkeeping and, if it carried recirculation
// bandwidth before it died, its loopback mode and place in the
// rotation are restored. Only ports previously taken down by
// HandlePortDown can be brought back.
func (d *Deployment) HandlePortUp(port asic.PortID) (PortUpReport, error) {
	if !d.Config.Prof.ValidPort(port) || asic.IsRecircPort(port) || port == asic.PortCPU {
		return PortUpReport{}, fmt.Errorf("core: port %d is not a front-panel port", port)
	}
	was, gone := d.dead[port]
	if !gone {
		return PortUpReport{}, fmt.Errorf("core: port %d is not down", port)
	}
	rep := PortUpReport{Port: port}
	if was.wasLoopback {
		if err := d.Switch.SetLoopback(port, asic.LoopbackOnChip); err != nil {
			return rep, err
		}
		rep.RestoredLoopback = true
		rep.RestoredLoopbackGbps = d.Config.Prof.PortGbps
		d.Config.LoopbackPorts = append(d.Config.LoopbackPorts, port)
		d.Capacity.LoopbackPorts = len(d.Config.LoopbackPorts)
		d.loops.add(port, d.Config.Prof.PipelineOf(port))
	}
	d.Capacity.TotalPorts++
	delete(d.dead, port)
	rep.RemainingLoopbackGbps = d.LoopbackGbps()
	return rep, nil
}

// DeadPorts returns the ports currently taken out by HandlePortDown,
// in ascending order.
func (d *Deployment) DeadPorts() []asic.PortID {
	out := make([]asic.PortID, 0, len(d.dead))
	for p := range d.dead {
		out = append(out, p)
	}
	slices.Sort(out)
	return out
}
