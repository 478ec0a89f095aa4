package core

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"dejavu/internal/asic"
	"dejavu/internal/pipeline"
	"dejavu/internal/route"
)

// This file implements the service upgrade and expansion half of the
// operational concerns §7 raises: live chain updates that recompose and
// atomically swap the pipelet programs on the running switch. Failure
// handling is the Reconcile round (reconcile.go).

// Update is a target state for a running deployment: the chain set
// plus the settings a live update can change without a redeploy. Every
// change to a running switch is one: staged (validate, derive the
// placement, build against a copy of the artifact cache, diff, DV009),
// then — unless it is a dry run — committed.
type Update struct {
	Chains []route.Chain
	// Pin, Optimizer, AnnealSeed, StrictLint and Telemetry replace the
	// live Config's on commit. A changed optimizer, seed or pin of a live
	// NF the chains still use re-solves the whole placement
	// (derivePlacement); a changed Telemetry toggles the collector.
	Pin        map[string]asic.PipeletID
	Optimizer  Optimizer
	AnnealSeed int64
	StrictLint bool
	Telemetry  bool
}

// keep is the update to chains under the live settings.
func (d *Deployment) keep(chains []route.Chain) Update {
	c := d.Config
	return Update{Chains: chains, Pin: c.Pin, Optimizer: c.Optimizer, AnnealSeed: c.AnnealSeed,
		StrictLint: c.StrictLint, Telemetry: c.Telemetry}
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

// Apply stages u and commits it to the live switch.
func (d *Deployment) Apply(u Update) error { return d.apply(u, nil) }

// apply is Apply under a given placement (nil: the derived one).
func (d *Deployment) apply(u Update, placement *route.Placement) error {
	st, err := d.stage(u, placement)
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
	st, err := d.stage(u, nil)
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
// switch or the deployment. The build runs each chain on the exit the
// switch's port health allows (exits), under placement when it is
// non-nil and the derived placement otherwise.
func (d *Deployment) stage(u Update, placement *route.Placement) (*staged, error) {
	if len(u.Chains) == 0 {
		return nil, fmt.Errorf("core: refusing to reconfigure to zero chains")
	}
	cfg := d.Config
	cfg.Chains, cfg.Pin, cfg.Optimizer, cfg.AnnealSeed = u.Chains, u.Pin, u.Optimizer, u.AnnealSeed
	cfg.StrictLint, cfg.Telemetry = u.StrictLint, u.Telemetry
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
	var err error
	if placement == nil {
		if placement, err = d.derivePlacement(cfg); err != nil {
			return nil, err
		}
	}
	if err := placement.Validate(cfg.Prof, cfg.Chains); err != nil {
		return nil, err
	}
	build := cfg
	build.Chains, _ = d.exits(cfg)
	st := &staged{cfg: cfg}
	if st.next, st.delta, err = d.installed.Stage(buildInputs(build, placement)); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return st, nil
}

// exits returns cfg's chains with every static exit on a port that is
// up: the declared one when it is, else the lowest healthy port of the
// chain's exit pipeline. A chain with neither keeps its declared exit
// and is listed in blackholed.
func (d *Deployment) exits(cfg Config) (chains, blackholed []route.Chain) {
	chains = slices.Clone(cfg.Chains)
	for i, c := range chains {
		if !c.HasStaticExit() || d.Switch.PortIsUp(c.StaticExitPort) {
			continue
		}
		if port, ok := healthyExitPort(cfg, d.Switch, c.ExitPipeline); ok {
			chains[i].StaticExitPort = port
		} else {
			blackholed = append(blackholed, c)
		}
	}
	return chains, blackholed
}

// healthyExitPort is the lowest-numbered port of a pipeline a chain can
// exit through: up, not a declared loopback port, and not port 0, which
// Chain.StaticExitPort reads as "no static exit".
func healthyExitPort(cfg Config, sw *asic.Switch, pipeline int) (asic.PortID, bool) {
	base := pipeline * cfg.Prof.PortsPerPipeline
	for p := base; p < base+cfg.Prof.PortsPerPipeline; p++ {
		if port := asic.PortID(p); port != 0 && sw.PortIsUp(port) && !slices.Contains(cfg.LoopbackPorts, port) {
			return port, true
		}
	}
	return 0, false
}

// derivePlacement is an update's one fork. A changed optimizer or
// anneal seed, or a pin added, removed or moved for a live NF the new
// chains still use, declares that live NFs should move: the whole
// placement is solved again. Otherwise it extends the running placement
// the way live updates must: live NFs stay where they run, with their
// pipelets' composition modes, NFs no chain uses anymore are unplaced,
// and the NFs the new chains introduce are placed by the deploy's own
// optimizer, with every live NF pinned where it runs.
func (d *Deployment) derivePlacement(cfg Config) (*route.Placement, error) {
	live := d.Config
	resolve := cfg.Optimizer != live.Optimizer || cfg.AnnealSeed != live.AnnealSeed
	still := make(map[string]bool)
	var introduced []string
	for _, c := range cfg.Chains {
		for _, n := range c.NFs {
			if still[n] {
				continue
			}
			still[n] = true
			old, had := live.Pin[n]
			now, has := cfg.Pin[n]
			if _, placed := d.Placement.Of(n); !placed {
				introduced = append(introduced, n)
			} else if had != has || old != now {
				resolve = true
			}
		}
	}
	if resolve {
		placement, _, err := pipeline.ResolvePlacement(buildInputs(cfg, nil))
		if err != nil {
			return nil, fmt.Errorf("core: %w", err)
		}
		return placement, nil
	}
	placement := d.Placement.Clone()
	maps.DeleteFunc(placement.NF, func(name string, _ asic.PipeletID) bool { return !still[name] })
	if len(introduced) == 0 {
		return placement, nil
	}
	pin := make(map[string]asic.PipeletID, len(cfg.Pin)+len(placement.NF))
	maps.Copy(pin, cfg.Pin)
	maps.Copy(pin, placement.NF) // a live NF stays where it runs, whatever its pin
	in := buildInputs(cfg, nil)
	in.Pin = pin
	solved, _, err := pipeline.ResolvePlacement(in)
	if err != nil {
		return nil, fmt.Errorf("core: placing %s: %w", strings.Join(introduced, ", "), err)
	}
	for _, n := range introduced {
		at, _ := solved.Of(n)
		placement.Assign(n, at)
	}
	return placement, nil
}

// commit puts a staged build on the switch as its minimal write-set
// (pipeline.Installed.Commit) through the retrying driver, and adopts
// settings, placement, plans and reports together once it succeeded.
// Every commit after the initial deploy's is a hot swap.
func (d *Deployment) commit(st *staged) error {
	res := st.next.Res
	swap := d.installed.Res != nil
	if err := d.installed.Commit(d.Switch, d.Controller, d.Driver.Apply, st.next, st.delta); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	d.adopt(st)
	if swap {
		d.Control.RecordSwap(len(st.delta), len(res.ChangedFuncs))
	}
	return nil
}
