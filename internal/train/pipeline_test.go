package train

import (
	"math"
	"reflect"
	"testing"

	"spardl/internal/comm"
	"spardl/internal/pipeline"
	"spardl/internal/simnet"
)

// pipeConfig is the pipeline acceptance setting: per-layer buckets on
// Ethernet at k/n = 1e-2 with paper-scale communication (without the β
// co-scaling the stand-in's tiny gradients make communication too cheap
// for overlap to matter either way).
func pipeConfig() Config {
	cfg := baseConfig()
	cfg.Iters = 6
	cfg.EvalEvery = 0
	cfg.PaperScaleComm = true
	return cfg
}

// TestSingleBucketIsBitIdenticalToMonolithic: a pipeline whose single
// bucket spans the whole model must reproduce the monolithic schedule
// (Pipeline nil) exactly — same per-iteration virtual time, same
// trajectory, same final replica, same exposed time.
func TestSingleBucketIsBitIdenticalToMonolithic(t *testing.T) {
	mono := pipeConfig()
	mono.EvalEvery = 2
	piped := mono
	piped.Pipeline = &pipeline.Config{BucketBytes: 1 << 40}

	a, b := Run(mono), Run(piped)
	if a.Buckets != 1 || b.Buckets != 1 {
		t.Fatalf("bucket counts %d (nil) and %d, want 1", a.Buckets, b.Buckets)
	}
	if !reflect.DeepEqual(a.Points, b.Points) {
		t.Fatalf("trajectories diverged:\n%v\n%v", a.Points, b.Points)
	}
	if a.TotalTime != b.TotalTime {
		t.Fatalf("total time %v != %v", a.TotalTime, b.TotalTime)
	}
	if a.FinalLoss != b.FinalLoss || a.FinalMetric != b.FinalMetric {
		t.Fatalf("final state differs: loss %v/%v metric %v/%v",
			a.FinalLoss, b.FinalLoss, a.FinalMetric, b.FinalMetric)
	}
	if a.CommTime != b.CommTime || a.CompTime != b.CompTime {
		t.Fatalf("time split differs: comm %v/%v comp %v/%v",
			a.CommTime, b.CommTime, a.CompTime, b.CompTime)
	}
	if a.BytesPerIter != b.BytesPerIter || a.MaxRounds != b.MaxRounds {
		t.Fatalf("traffic differs: bytes %d/%d rounds %d/%d",
			a.BytesPerIter, b.BytesPerIter, a.MaxRounds, b.MaxRounds)
	}
	// The single bucket launches exactly at compute end: nothing can hide,
	// and both configurations must book the same exposed synchronization
	// time (α-β charges + in-collective selection compute).
	if b.OverlapSaved != 0 || b.ExposedComm < b.CommTime {
		t.Fatalf("single bucket should expose all comm: exposed %v comm %v saved %v",
			b.ExposedComm, b.CommTime, b.OverlapSaved)
	}
	if a.ExposedComm != b.ExposedComm {
		t.Fatalf("exposed accounting differs: %v vs %v", a.ExposedComm, b.ExposedComm)
	}
}

// TestPerLayerPipelineCutsExposedComm is the headline acceptance check:
// per-layer buckets on Ethernet at k/n = 1e-2 must cut the exposed
// communication time by at least 25% versus the monolithic schedule.
func TestPerLayerPipelineCutsExposedComm(t *testing.T) {
	mono := Run(pipeConfig())

	cfg := pipeConfig()
	cfg.Pipeline = &pipeline.Config{} // BucketBytes 0: one bucket per tensor
	piped := Run(cfg)

	if piped.Buckets < 3 {
		t.Fatalf("per-layer plan built only %d buckets", piped.Buckets)
	}
	if mono.ExposedComm < mono.CommTime {
		t.Fatalf("monolithic exposed %v below comm %v", mono.ExposedComm, mono.CommTime)
	}
	if piped.ExposedComm > 0.75*mono.ExposedComm {
		t.Fatalf("exposed comm %.6fs not ≥25%% below monolithic %.6fs",
			piped.ExposedComm, mono.ExposedComm)
	}
	if piped.OverlapSaved <= 0 {
		t.Fatalf("pipeline saved nothing: %+v", piped)
	}
	if piped.TotalTime >= mono.TotalTime {
		t.Fatalf("pipelined run slower than monolithic: %.6fs vs %.6fs",
			piped.TotalTime, mono.TotalTime)
	}
	// Training still works on bucketed top-k.
	if piped.FinalLoss > mono.FinalLoss*1.5+0.5 {
		t.Fatalf("bucketed training diverged: loss %.4f vs %.4f", piped.FinalLoss, mono.FinalLoss)
	}
}

// serialBackend runs its backend's workers with every Overlap body inline
// on the main clock: a bucket schedule on it is the serialized reference.
type serialBackend struct{ comm.Backend }

func (b serialBackend) Run(p int, worker func(rank int, ep comm.Endpoint)) *comm.Report {
	return b.Backend.Run(p, func(rank int, ep comm.Endpoint) { worker(rank, serialEndpoint{ep}) })
}

type serialEndpoint struct{ comm.Endpoint }

func (e serialEndpoint) Overlap(body func(comm.Endpoint)) { body(e.Endpoint) }

// TestOverlapSavedReconcilesWithSerializedSchedule: the same bucket
// schedule run serially (serialBackend) costs the pipelined time plus what
// the pipeline reports as saved. Wait patterns against peers can shift by
// a few α between the two modes, so the reconciliation is checked to a
// tight relative tolerance rather than bit-exactly (the per-worker identity
// is exercised exactly in simnet's overlap tests).
func TestOverlapSavedReconcilesWithSerializedSchedule(t *testing.T) {
	cfg := pipeConfig()
	cfg.Pipeline = &pipeline.Config{}
	piped := Run(cfg)

	// The serial run wraps the simulator Run would build for cfg.
	s, err := newSession(cfg)
	if err != nil {
		t.Fatal(err)
	}
	network := cfg.Network
	network.Beta *= float64(cfg.Case.PaperParams) / float64(s.n)
	serialCfg := cfg
	serialCfg.PaperScaleComm = false
	serialCfg.Backend = serialBackend{simnet.Backend(network)}
	serial := Run(serialCfg)

	if serial.OverlapSaved != 0 {
		t.Fatalf("serialized schedule reported savings: %v", serial.OverlapSaved)
	}
	// Identical schedule ⇒ identical updates and traffic, only timing moves.
	if serial.FinalLoss != piped.FinalLoss || serial.BytesPerIter != piped.BytesPerIter {
		t.Fatalf("overlap changed the computation: loss %v/%v bytes %d/%d",
			serial.FinalLoss, piped.FinalLoss, serial.BytesPerIter, piped.BytesPerIter)
	}
	want := serial.TotalTime - piped.TotalTime
	got := piped.OverlapSaved * float64(cfg.Iters)
	if want <= 0 {
		t.Fatalf("overlap did not speed up the schedule: serial %.6f piped %.6f",
			serial.TotalTime, piped.TotalTime)
	}
	if math.Abs(got-want) > 0.02*want {
		t.Fatalf("OverlapSaved %.6fs does not reconcile with serialized−pipelined %.6fs", got, want)
	}
}
