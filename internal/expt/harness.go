package expt

import (
	"fmt"
	"sort"

	"spardl/internal/core"
	"spardl/internal/sparsecoll"
)

// Quality selects experiment scale: Quick keeps every runner in benchmark
// budget; Full approaches the paper's scale (more iterations, more epochs).
type Quality int

const (
	// Quick is the benchmark-friendly scale.
	Quick Quality = iota
	// Full is the paper-faithful scale (longer runs).
	Full
)

// pick returns quick or full depending on q.
func pick[T any](q Quality, quick, full T) T {
	if q == Quick {
		return quick
	}
	return full
}

// Experiment is one reproducible artifact of the paper.
type Experiment struct {
	ID    string
	Title string
	// Paper summarizes what the original reports; cmd/spardl-bench prints
	// it beside the measured tables.
	Paper string
	Run   func(q Quality) []*Table
}

var registry []*Experiment

func register(e *Experiment) { registry = append(registry, e) }

// All returns every registered experiment sorted by id.
func All() []*Experiment {
	out := append([]*Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given id.
func ByID(id string) (*Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return nil, fmt.Errorf("expt: unknown experiment %q (try: %s)", id, ids())
}

func ids() string {
	s := ""
	for i, e := range All() {
		if i > 0 {
			s += ", "
		}
		s += e.ID
	}
	return s
}

// NamedFactory pairs a display name with a reducer factory.
type NamedFactory struct {
	Name    string
	Factory sparsecoll.Factory
}

// paperBaselines returns the four methods of Fig. 8/9 in the paper's
// display order.
func paperBaselines() []NamedFactory {
	return []NamedFactory{
		{"TopkDSA", sparsecoll.NewTopkDSA},
		{"TopkA", sparsecoll.NewTopkA},
		{"OkTopk", sparsecoll.NewOkTopk},
		{"SparDL", core.NewFactory(core.Options{})},
	}
}

// sparDL returns a SparDL factory with the given team configuration.
func sparDL(opts core.Options) sparsecoll.Factory { return core.NewFactory(opts) }
