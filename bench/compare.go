package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile mirrors BENCHMARK.json, the contract this directory is
// written to.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark contract (run from the repository root): %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &bf, nil
}

// loadBounds returns each end-to-end metric's bound: the share of the
// earlier value by which a later one may be worse.
func loadBounds(path string) (map[string]float64, error) {
	bf, err := loadBenchmarkFile(path)
	if err != nil {
		return nil, err
	}
	bounds := map[string]float64{}
	for _, m := range bf.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	return bounds, nil
}

// compareSets prints, for every end-to-end metric × workload, how much
// worse the last set is than the first, next to the metric's bound, and
// reports whether any pair breached it. Every metric is lower-is-better.
func compareSets(w io.Writer, sets []map[string]*result, bounds map[string]float64) (breach bool) {
	first, last := sets[0], sets[len(sets)-1]
	fmt.Fprintf(w, "== drift of set %d against set 1 ==\n", len(sets))
	fmt.Fprintf(w, "%-20s %-22s %14s %14s %9s %7s\n", "workload", "metric", "set 1", fmt.Sprintf("set %d", len(sets)), "worse by", "bound")
	for i := range workloads {
		name := workloads[i].name
		a, b := first[name], last[name]
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.name], b.Metrics[d.name]
			rel := 0.0
			if va != 0 {
				rel = (vb - va) / va
			}
			mark := ""
			if rel > bounds[d.name] {
				mark = "  BREACH"
				breach = true
			}
			fmt.Fprintf(w, "%-20s %-22s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n",
				name, d.name, va, vb, rel*100, bounds[d.name]*100, mark)
		}
	}
	return breach
}
