package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"dejavu/internal/core"
	"dejavu/internal/route"
)

// buildBenchReport is the JSON document `dejavu benchbuild -json`
// emits and the Makefile snapshots into BENCH_build.json: full
// (cold-cache) build latency versus the incremental rebuilds
// AddChain/RemoveChain actually run, under repeated chain churn.
type buildBenchReport struct {
	Bench     string    `json:"bench"`
	Generated string    `json:"generated"`
	Host      benchHost `json:"host"`
	// Rounds is the number of add+remove churn iterations.
	Rounds int `json:"rounds"`
	// FullNsPerBuild is the median cold-cache pipeline build time for
	// the expanded chain set. The three timings are medians over the
	// rounds: a mean over 50 sub-millisecond builds moves by a factor
	// of two with where the collector's cycles happen to land.
	FullNsPerBuild float64 `json:"full_ns_per_build"`
	// IncrAddNsPerBuild / IncrRemoveNsPerBuild are the median
	// incremental rebuild times inside AddChain / RemoveChain.
	IncrAddNsPerBuild    float64 `json:"incr_add_ns_per_build"`
	IncrRemoveNsPerBuild float64 `json:"incr_remove_ns_per_build"`
	// Speedup is FullNsPerBuild / IncrAddNsPerBuild.
	Speedup float64 `json:"speedup"`
	// CacheHitRate is the deployment's lifetime stage-cache hit
	// fraction across the churn.
	CacheHitRate float64 `json:"cache_hit_rate"`
	// StagesCachedPerAdd is the mean number of pipeline stages served
	// from cache on an AddChain rebuild.
	StagesCachedPerAdd float64 `json:"stages_cached_per_add"`
	// DeltaEntriesPerSwap is the mean branching-table write-set size.
	DeltaEntriesPerSwap float64 `json:"delta_entries_per_swap"`
	// ProgramSwapsTotal counts pipelet program reloads across all
	// swaps (0 when every behavioural program was cache-served).
	ProgramSwapsTotal uint64 `json:"program_swaps_total"`
}

// benchHost records what the report's timings ran on.
type benchHost struct {
	Go         string `json:"go"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// runBuildBench measures the staged build pipeline: it deploys the
// configured (or reference) scenario, then repeatedly hot-adds and
// removes an extra chain over the deployed NFs, comparing the
// incremental rebuild latency against a cold-cache build of the same
// expanded config. With -check it also compares the run against a
// committed report and fails on a regression.
func runBuildBench(args []string) error {
	fs := flag.NewFlagSet("benchbuild", flag.ExitOnError)
	rounds := fs.Int("rounds", 50, "add/remove churn rounds")
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	check := fs.String("check", "", "committed report (BENCH_build.json) to compare against; exit 1 on a regression")
	fs.Parse(args)

	var committed buildBenchReport
	if *check != "" {
		raw, err := os.ReadFile(*check)
		if err != nil {
			return fmt.Errorf("benchbuild: %w", err)
		}
		if err := json.Unmarshal(raw, &committed); err != nil {
			return fmt.Errorf("benchbuild: %s: %w", *check, err)
		}
		if committed.IncrAddNsPerBuild <= 0 {
			return fmt.Errorf("benchbuild: %s records no incr_add_ns_per_build", *check)
		}
	}

	d, err := deploy("manual", 0)
	if err != nil {
		return err
	}
	// The churn chain reuses the first deployed chain's NFs (the
	// paper's expansion case: a new policy over already-placed NFs)
	// under a fresh path ID.
	tmpl := d.Config.Chains[0]
	var maxPath uint16
	for _, c := range d.Config.Chains {
		if c.PathID > maxPath {
			maxPath = c.PathID
		}
	}
	extra := route.Chain{
		PathID:         maxPath + 1,
		NFs:            append([]string(nil), tmpl.NFs...),
		Weight:         0.05,
		ExitPipeline:   tmpl.ExitPipeline,
		StaticExitPort: tmpl.StaticExitPort,
	}

	var fullNS, addNS, removeNS []float64
	var deltaOps, stagesCached float64
	for r := 0; r < *rounds; r++ {
		if err := d.AddChain(extra); err != nil {
			return fmt.Errorf("round %d add: %w", r, err)
		}
		addNS = append(addNS, float64(d.LastBuild.Duration))
		deltaOps += float64(len(d.LastDelta))
		stagesCached += float64(d.LastBuild.CacheHits)

		// Cold-cache reference: build the same expanded config from
		// scratch (what every reconfiguration cost before the staged
		// pipeline).
		full := d.Config
		full.Placement = d.Placement
		t0 := time.Now()
		if _, _, err := core.Compose(full, false); err != nil {
			return fmt.Errorf("round %d full build: %w", r, err)
		}
		fullNS = append(fullNS, float64(time.Since(t0)))

		if err := d.RemoveChain(extra.PathID); err != nil {
			return fmt.Errorf("round %d remove: %w", r, err)
		}
		removeNS = append(removeNS, float64(d.LastBuild.Duration))
		deltaOps += float64(len(d.LastDelta))
	}

	n := float64(*rounds)
	rep := buildBenchReport{
		Bench:     "build-pipeline",
		Generated: time.Now().UTC().Format(time.RFC3339),
		Host: benchHost{
			Go:         runtime.Version(),
			CPUs:       runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
		Rounds:               *rounds,
		FullNsPerBuild:       median(fullNS),
		IncrAddNsPerBuild:    median(addNS),
		IncrRemoveNsPerBuild: median(removeNS),
		CacheHitRate:         d.Rebuild.CacheHitRate(),
		StagesCachedPerAdd:   stagesCached / n,
		DeltaEntriesPerSwap:  deltaOps / (2 * n),
		ProgramSwapsTotal:    0,
	}
	if rep.IncrAddNsPerBuild > 0 {
		rep.Speedup = rep.FullNsPerBuild / rep.IncrAddNsPerBuild
	}
	st := d.Controller.Stats()
	rep.ProgramSwapsTotal = uint64(st.ProgramWrites)

	if *jsonOut {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		fmt.Println(string(out))
	} else {
		fmt.Printf("build pipeline churn benchmark (%d rounds)\n", rep.Rounds)
		fmt.Printf("  full build:        %10.0f ns\n", rep.FullNsPerBuild)
		fmt.Printf("  incremental add:   %10.0f ns (%.1fx speedup)\n", rep.IncrAddNsPerBuild, rep.Speedup)
		fmt.Printf("  incremental remove:%10.0f ns\n", rep.IncrRemoveNsPerBuild)
		fmt.Printf("  stage cache hit rate: %.0f%%\n", 100*rep.CacheHitRate)
		fmt.Printf("  stages cached per add: %.1f\n", rep.StagesCachedPerAdd)
		fmt.Printf("  branching delta per swap: %.1f entries\n", rep.DeltaEntriesPerSwap)
		fmt.Printf("  pipelet programs reloaded: %d\n", rep.ProgramSwapsTotal)
	}
	if *check == "" {
		return nil
	}
	return checkBuildBench(rep, committed, *check)
}

// median of the samples (0 when there are none); it sorts in place.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	m := len(v) / 2
	if len(v)%2 == 1 {
		return v[m]
	}
	return (v[m-1] + v[m]) / 2
}

// Regression gates of `benchbuild -check`: the incremental add may
// cost at most buildBenchSlack times the committed figure (the hosts
// differ, so the margin is wide), and must stay at least
// buildBenchMinSpeedup times faster than the cold build of the same
// run (a ratio, so the host cancels).
const (
	buildBenchSlack      = 1.5
	buildBenchMinSpeedup = 2.0
)

// checkBuildBench compares a fresh report with the one committed at
// path.
func checkBuildBench(rep, committed buildBenchReport, path string) error {
	if limit := buildBenchSlack * committed.IncrAddNsPerBuild; rep.IncrAddNsPerBuild > limit {
		return fmt.Errorf("benchbuild: incremental add %.0f ns exceeds %.1fx the %.0f ns committed in %s",
			rep.IncrAddNsPerBuild, buildBenchSlack, committed.IncrAddNsPerBuild, path)
	}
	if rep.Speedup < buildBenchMinSpeedup {
		return fmt.Errorf("benchbuild: incremental add is %.2fx faster than the full build, below the %.1fx floor (%s records %.2fx)",
			rep.Speedup, buildBenchMinSpeedup, path, committed.Speedup)
	}
	fmt.Fprintf(os.Stderr, "benchbuild: ok against %s: incremental add %.0f ns (committed %.0f), %.2fx the full build (committed %.2fx)\n",
		path, rep.IncrAddNsPerBuild, committed.IncrAddNsPerBuild, rep.Speedup, committed.Speedup)
	return nil
}
