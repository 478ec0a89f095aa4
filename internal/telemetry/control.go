package telemetry

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Control counts control-plane work, recorded by the code that does it:
// a deployment's pipeline builds and hot swaps (core.Deployment),
// intent applies (intent.Applier) and a fabric's reconcile rounds
// (cluster.FabricDeployment). It is bumped once per build, apply or
// round — never on the packet path — and its counters are atomics so a
// metrics scrape can race a live update. Gather renders each group of
// families (rebuild, apply, fabric) only once something was recorded
// into it, so a registry shows no group its owner never produces.
type Control struct {
	// The rebuild, apply and fabric groups' readings.
	builds, stageHits, stageMisses, buildNS, lastBuildNS, swaps, deltaEntries, programSwaps           atomic.Uint64
	applies, noops, rollbacks, dryRuns, adds, removes, updates, applyNS, lastApplyNS, lastActions     atomic.Uint64
	alive, switches, blackholed, reconciles, replacements, convergences, convergeRounds, lastConverge atomic.Uint64

	seen [3]atomic.Bool // the groups recorded into

	// The fabric's failed rounds since its last good one, and each chain
	// it ever routed. Guarded by mu.
	mu      sync.Mutex
	failing uint64
	chains  map[uint16]chainRoute
}

// Control's family groups, indexing seen.
const rebuild, apply, fabric = 0, 1, 2

// chainRoute is one chain's route shape, how often it changed, and the
// last round that found it installed.
type chainRoute struct {
	pathLen, crossHops int
	replaced, round    uint64
}

// NewControl creates an empty control-plane counter set.
func NewControl() *Control { return &Control{} }

// RecordBuild records one pipeline build: its stage-cache hit/miss
// split and wall time.
func (c *Control) RecordBuild(hits, misses int, ns int64) {
	c.seen[rebuild].Store(true)
	c.builds.Add(1)
	c.stageHits.Add(uint64(hits))
	c.stageMisses.Add(uint64(misses))
	if ns > 0 {
		c.buildNS.Add(uint64(ns))
		c.lastBuildNS.Store(uint64(ns))
	}
}

// RecordSwap records one hot swap committed to the switch: its
// branching-table entry ops and pipelet program swaps.
func (c *Control) RecordSwap(entryOps, programs int) {
	c.seen[rebuild].Store(true)
	c.swaps.Add(1)
	c.deltaEntries.Add(uint64(entryOps))
	c.programSwaps.Add(uint64(programs))
}

// RecordApply records one successful intent apply: the changed-action
// split of its delta, whether it was a proved no-op, and its
// convergence wall time.
func (c *Control) RecordApply(added, removed, updated int, noop bool, ns int64) {
	c.seen[apply].Store(true)
	c.applies.Add(1)
	if noop {
		c.noops.Add(1)
	}
	c.adds.Add(uint64(added))
	c.removes.Add(uint64(removed))
	c.updates.Add(uint64(updated))
	if ns > 0 {
		c.applyNS.Add(uint64(ns))
		c.lastApplyNS.Store(uint64(ns))
	}
	c.lastActions.Store(uint64(added + removed + updated))
}

// RecordRollback records one failed apply that restored the prior intent.
func (c *Control) RecordRollback() {
	c.seen[apply].Store(true)
	c.rollbacks.Add(1)
}

// RecordDryRun records one dry-run apply (planned, nothing touched).
func (c *Control) RecordDryRun() {
	c.seen[apply].Store(true)
	c.dryRuns.Add(1)
}

// Round is one committed fabric reconcile round: the fabric's live and
// configured switches, the chains blackholed after it, the switch
// program transactions it committed, whether it failed (aborted or
// rolled back), and every installed route after it — a failed round
// keeps the routes it found.
type Round struct {
	Alive, Switches, Blackholed, Commits int
	Failed                               bool
	Routes                               []Route
}

// Route is one chain's installed route: its length in switches (entry
// included), its cross-switch wire hops, and whether the round changed it.
type Route struct {
	Chain              uint16
	PathLen, CrossHops int
	Replaced           bool
}

// RecordRound records one fabric reconcile round. A good round that
// committed a switch program is a convergence, whose length is the
// rounds since the first failed round before it, that round included.
func (c *Control) RecordRound(r Round) {
	c.seen[fabric].Store(true)
	c.alive.Store(uint64(r.Alive))
	c.switches.Store(uint64(r.Switches))
	c.blackholed.Store(uint64(r.Blackholed))
	c.replacements.Add(uint64(r.Commits))

	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.reconciles.Add(1) // under mu: a chain is installed iff its round is the last
	if c.chains == nil {
		c.chains = make(map[uint16]chainRoute, len(r.Routes))
	}
	for _, rt := range r.Routes {
		cr := c.chains[rt.Chain]
		cr.pathLen, cr.crossHops, cr.round = rt.PathLen, rt.CrossHops, n
		if rt.Replaced {
			cr.replaced++
		}
		c.chains[rt.Chain] = cr
	}
	switch {
	case r.Failed:
		c.failing++
		return
	case r.Commits > 0:
		rounds := c.failing + 1
		c.convergences.Add(1)
		c.convergeRounds.Add(rounds)
		c.lastConverge.Store(rounds)
	}
	c.failing = 0
}

// valueSample is one sample of a fixed family: its labels and reading.
type valueSample struct {
	labels string
	v      *atomic.Uint64
}

func one(v *atomic.Uint64) []valueSample { return []valueSample{{v: v}} }

// Gather implements Collector (see docs/OBSERVABILITY.md). The table
// lists every family in order; one with a chain reading has a sample
// per chain it reports.
func (c *Control) Gather() []Family {
	table := []struct {
		group      int
		name, help string
		kind       Kind
		samples    []valueSample
		chain      func(cr chainRoute, installed bool) (v float64, reported bool)
	}{
		{rebuild, "dejavu_rebuild_builds_total", "Incremental pipeline builds run for this deployment.", KindCounter, one(&c.builds), nil},
		{rebuild, "dejavu_rebuild_stage_cache_total", "Build-pipeline stage artifact cache lookups by result.", KindCounter,
			[]valueSample{{`result="hit"`, &c.stageHits}, {`result="miss"`, &c.stageMisses}}, nil},
		{rebuild, "dejavu_rebuild_build_ns_total", "Cumulative wall time spent in pipeline builds.", KindCounter, one(&c.buildNS), nil},
		{rebuild, "dejavu_rebuild_last_build_ns", "Wall time of the most recent pipeline build.", KindGauge, one(&c.lastBuildNS), nil},
		{rebuild, "dejavu_rebuild_swaps_total", "Live reconfigurations committed to the switch.", KindCounter, one(&c.swaps), nil},
		{rebuild, "dejavu_rebuild_delta_entries_total", "Branching-table entry ops applied by hot swaps.", KindCounter, one(&c.deltaEntries), nil},
		{rebuild, "dejavu_rebuild_program_swaps_total", "Pipelet behavioural programs replaced by hot swaps.", KindCounter, one(&c.programSwaps), nil},

		{apply, "dejavu_apply_total", "Successful intent applies, including proved no-ops.", KindCounter, one(&c.applies), nil},
		{apply, "dejavu_apply_noop_total", "Applies proved to change nothing (idempotent re-apply).", KindCounter, one(&c.noops), nil},
		{apply, "dejavu_apply_rollback_total", "Failed applies rolled back to the prior intent.", KindCounter, one(&c.rollbacks), nil},
		{apply, "dejavu_apply_dryrun_total", "Dry-run applies (planned, nothing converged).", KindCounter, one(&c.dryRuns), nil},
		{apply, "dejavu_apply_actions_total", "Chain actions converged by applies, by kind.", KindCounter,
			[]valueSample{{`kind="add"`, &c.adds}, {`kind="remove"`, &c.removes}, {`kind="update"`, &c.updates}}, nil},
		{apply, "dejavu_apply_convergence_ns_total", "Cumulative wall time spent converging applies.", KindCounter, one(&c.applyNS), nil},
		{apply, "dejavu_apply_last_convergence_ns", "Wall time of the most recent apply.", KindGauge, one(&c.lastApplyNS), nil},
		{apply, "dejavu_apply_last_actions", "Changed chain actions in the most recent apply.", KindGauge, one(&c.lastActions), nil},

		{fabric, "dejavu_fabric_switches", "Fabric switches by state at the last reconcile.", KindGauge,
			[]valueSample{{`state="alive"`, &c.alive}, {`state="configured"`, &c.switches}}, nil},
		{fabric, "dejavu_fabric_chains_blackholed", "Chains whose NFs do not fit on the surviving switches.", KindGauge, one(&c.blackholed), nil},
		{fabric, "dejavu_fabric_reconciles_total", "Fabric reconcile rounds run.", KindCounter, one(&c.reconciles), nil},
		{fabric, "dejavu_fabric_replacements_total", "Switch program transactions committed by reconciliation.", KindCounter, one(&c.replacements), nil},
		{fabric, "dejavu_fabric_convergences_total", "Completed fabric reconvergences.", KindCounter, one(&c.convergences), nil},
		{fabric, "dejavu_fabric_converge_ticks_total", "Cumulative ticks spent converging after fabric faults.", KindCounter, one(&c.convergeRounds), nil},
		{fabric, "dejavu_fabric_last_converge_ticks", "Ticks the most recent reconvergence took.", KindGauge, one(&c.lastConverge), nil},
		{fabric, "dejavu_fabric_place_path_length", "Switches on each chain's installed route, entry included.", KindGauge, nil,
			func(cr chainRoute, installed bool) (float64, bool) { return float64(cr.pathLen), installed }},
		{fabric, "dejavu_fabric_place_cross_hops", "Cross-switch wire hops on each chain's installed route.", KindGauge, nil,
			func(cr chainRoute, installed bool) (float64, bool) { return float64(cr.crossHops), installed }},
		{fabric, "dejavu_fabric_place_replacements_total", "Route changes (re-places) per chain since start.", KindCounter, nil,
			func(cr chainRoute, _ bool) (float64, bool) { return float64(cr.replaced), true }},
	}
	var out []Family
	for _, f := range table {
		if !c.seen[f.group].Load() {
			continue
		}
		fam := Family{Name: f.name, Help: f.help, Kind: f.kind}
		for _, s := range f.samples {
			fam.Samples = append(fam.Samples, Sample{Labels: s.labels, Value: float64(s.v.Load())})
		}
		if f.chain != nil {
			fam.Samples = c.chainSamples(f.chain)
		}
		out = append(out, fam)
	}
	return out
}

// chainSamples renders one labelled sample per chain the reading
// reports, in ascending chain order.
func (c *Control) chainSamples(reading func(chainRoute, bool) (float64, bool)) []Sample {
	c.mu.Lock()
	defer c.mu.Unlock()
	last := c.reconciles.Load()
	ids := make([]uint16, 0, len(c.chains))
	for id := range c.chains {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var out []Sample
	for _, id := range ids {
		cr := c.chains[id]
		if v, ok := reading(cr, cr.round == last); ok {
			out = append(out, Sample{Labels: fmt.Sprintf(`chain="%d"`, id), Value: v})
		}
	}
	return out
}

// Builds returns the number of pipeline builds recorded.
func (c *Control) Builds() uint64 { return c.builds.Load() }

// Swaps returns the number of hot swaps recorded.
func (c *Control) Swaps() uint64 { return c.swaps.Load() }

// CacheHitRate returns the lifetime stage-cache hit fraction in [0,1].
func (c *Control) CacheHitRate() float64 {
	h, m := c.stageHits.Load(), c.stageMisses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
