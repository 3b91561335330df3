package expt

import (
	"fmt"

	"spardl/internal/comm"
	"spardl/internal/core"
	"spardl/internal/pipeline"
	"spardl/internal/train"
)

// pipelineSchedules enumerates the compared synchronization schedules:
// the paper's monolithic all-reduce, one bucket per tensor, and SSFusion-
// style fused buckets.
func pipelineSchedules() []struct {
	name string
	cfg  *pipeline.Config
} {
	return []struct {
		name string
		cfg  *pipeline.Config
	}{
		{"monolithic", nil},
		{"per-layer", &pipeline.Config{}},
		{"fused-64KB", &pipeline.Config{BucketBytes: 64 << 10}},
		{"fused-256KB", &pipeline.Config{BucketBytes: 256 << 10}},
	}
}

func init() {
	register(&Experiment{
		ID:    "ext-pipeline",
		Title: "Extension: layer-wise bucketed pipeline (overlap sparse comm with backprop)",
		Paper: "The paper's cost model (Section II) prices an iteration as compute plus one monolithic all-reduce. This extension buckets the gradient back-to-front (tensor fusion), gives each bucket a proportional share of k, and launches each bucket's SparDL synchronization on a per-worker communication stream as soon as its backward slices finish — reporting how much of the communication stays exposed versus hidden under the remaining backward pass, across networks and sparsity levels.",
		Run: func(q Quality) []*Table {
			var tables []*Table
			c := train.CaseByID(2) // VGG-19/CIFAR-100, the Fig. 8/18 headline case
			for _, net := range []struct {
				name    string
				profile comm.Profile
			}{
				{"Ethernet", comm.Ethernet},
				{"RDMA", comm.RDMA},
			} {
				for _, ratio := range []float64{1e-3, 1e-2} {
					tab := &Table{
						Title: fmt.Sprintf("Pipelined SparDL — %s, %s, k/n=%.0e (P=4, paper-scale β)",
							c.Name, net.name, ratio),
						Columns: []string{"schedule", "buckets", "comm(s)", "exposed(s)", "saved(s)", "per-update(s)", "exposed vs monolithic"},
						Notes: []string{
							"exposed(s): synchronization time outliving the overlapped backward pass (monolithic exposes everything)",
							"saved(s): clock time hidden under compute; serialized − pipelined ≡ saved, per worker and iteration",
							"each bucket keeps a k share proportional to its size, so the global density matches across schedules",
						},
					}
					var monoExposed float64
					for _, sched := range pipelineSchedules() {
						cfg := train.Config{
							Case: c, P: 4, KRatio: ratio,
							Network: net.profile, Factory: core.NewFactory(core.Options{}),
							Iters: pick(q, 6, 24), Seed: 23,
							PaperScaleComm: true,
							Pipeline:       sched.cfg,
						}
						r := train.Run(cfg)
						if sched.cfg == nil {
							monoExposed = r.ExposedComm
						}
						delta := "-"
						if sched.cfg != nil && monoExposed > 0 {
							delta = fmt.Sprintf("%+.0f%%", 100*(r.ExposedComm/monoExposed-1))
						}
						tab.AddRow(sched.name, r.Buckets, r.CommTime, r.ExposedComm, r.OverlapSaved, r.PerUpdateTime, delta)
					}
					tables = append(tables, tab)
				}
			}
			return tables
		},
	})
}
