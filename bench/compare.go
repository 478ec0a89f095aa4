package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// loadSet reads a result file written with -out.
func loadSet(path string) (*resultSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(b, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// timedValues collects one end-to-end metric's values over a set's
// timed runs of one workload.
func (s *resultSet) timedValues(workload, metric string) []float64 {
	var vs []float64
	for _, r := range s.Runs {
		if r.Workload == workload && !r.Traced {
			if v, ok := r.Metrics[metric]; ok {
				vs = append(vs, v.Value)
			}
		}
	}
	return vs
}

// verdict judges one (workload, metric) pair of two sets of runs of
// the same length. The pair is unresolved when either set's own
// quartile spread exceeds the metric's bound — the runs cannot tell a
// change of that size from noise; otherwise b regresses when its median
// is worse than a's by more than the bound.
func verdict(d metricDef, a, b []float64) (string, float64) {
	ma, mb := median(a), median(b)
	if len(a) == 0 || len(b) == 0 || ma == 0 {
		return "missing", 0
	}
	worse := (mb - ma) / ma
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case quartileSpread(a) > d.Bound || quartileSpread(b) > d.Bound:
		return "unresolved", worse
	case worse > d.Bound:
		return "REGRESSION", worse
	}
	return "ok", worse
}

// compareFiles prints one row per (workload, end-to-end metric) and
// fails when any pair regressed or is missing from either file.
func compareFiles(pathA, pathB string) error {
	a, err := loadSet(pathA)
	if err != nil {
		return err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return err
	}
	if a.Host != b.Host {
		fmt.Printf("note: hosts differ (%+v vs %+v); only runs from one host compare\n", a.Host, b.Host)
	}
	fmt.Printf("%-16s %-13s %12s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "median a", "median b", "worse", "spread a", "spread b", "bound", "verdict")
	bad := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			va, vb := a.timedValues(w.name, d.Name), b.timedValues(w.name, d.Name)
			v, worse := verdict(d, va, vb)
			fmt.Printf("%-16s %-13s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %5.0f%%  %s (n=%d,%d)\n",
				w.name, d.Name, median(va), median(vb), 100*worse,
				100*quartileSpread(va), 100*quartileSpread(vb), 100*d.Bound, v, len(va), len(vb))
			if v == "REGRESSION" || v == "missing" {
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d (workload, metric) pair(s) regressed or missing", bad)
	}
	return nil
}
