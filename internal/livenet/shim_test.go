package livenet

import (
	"spardl/internal/chaos"
	"spardl/internal/comm"
)

// RunElastic keeps elastic_test.go's call shape from when livenet had an
// elastic driver of its own: the schedule now rides in the backend and the
// driver is comm.RunElastic.
func RunElastic(p int, sched *chaos.Schedule, opts comm.ElasticOptions, worker comm.ElasticWorker) (*comm.Report, []comm.Recovery, error) {
	return backend{sched: sched}.RunElastic(p, opts, worker)
}
