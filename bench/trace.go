package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"spardl/internal/comm"
	"spardl/internal/data"
	"spardl/internal/nn"
	"spardl/internal/sparsecoll"
)

// spanName identifies the layer boundary a span was recorded at. Names
// are "<package>.<what>" so a span maps to one module of the repository.
type spanName uint8

const (
	spGradCopy    spanName = iota // bench's own copy of the input gradient
	spCoreReduce                  // core.SparDL.ReduceInto
	spDenseReduce                 // sparsecoll.DenseAllReduce.ReduceInto
	spSend                        // comm.Endpoint.Send
	spRecv                        // comm.Endpoint.Recv (blocked + decode)
	spBarrier                     // comm.Endpoint.SyncClock
	spJoin                        // comm.Endpoint.Join
	spOverlap                     // one Overlap body on the comm stream
	spPipelineRun                 // pipeline.Schedule.Run
	spBatch                       // data.Dataset.TrainBatch
	spFwd                         // nn.Model.Loss on a training batch
	spEval                        // data EvalBatch + nn.Model.Loss on it
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"bench.grad_copy", "core.reduce", "sparsecoll.dense_reduce",
	"comm.send", "comm.recv", "comm.barrier", "comm.join", "comm.overlap",
	"pipeline.run", "data.batch", "nn.fwd", "train.eval",
}

// span is one timed call into a layer. Parent is the ID of the enclosing
// span on the same rank (−1 at the top); an Overlap body's parent is the
// span that launched it. Start and End are nanoseconds since the tracer
// was created. Bytes is the accounted size for comm.send / comm.recv.
type span struct {
	Name   spanName
	Stream bool // recorded on the comm stream, concurrent with the main lane
	Rank   int32
	Op     int32
	ID     int32
	Parent int32
	Start  int64
	End    int64
	Bytes  int64
}

// tracer keeps every span in memory, one append-only slice per rank, and
// writes them out once the workload has finished. Recording is gated by
// on, which the meter flips only while every worker is parked between two
// barriers, so a span never straddles a flip.
type tracer struct {
	t0    time.Time
	on    atomic.Bool
	ranks []*rankTrace
}

type rankTrace struct {
	rank   int32
	op     atomic.Int32 // current op id, set by the rank's own worker
	mu     sync.Mutex   // main lane and comm stream both append
	spans  []span
	main   lane
	stream lane
}

// lane is one goroutine's span stack: the worker's main lane or its
// communication stream. A nil *lane records nothing, so untraced runs
// share the decorators' code paths.
type lane struct {
	tr    *tracer
	rt    *rankTrace
	stack []int32
}

func newTracer(p int) *tracer {
	tr := &tracer{t0: time.Now(), ranks: make([]*rankTrace, p)}
	for r := range tr.ranks {
		rt := &rankTrace{rank: int32(r)}
		rt.main = lane{tr: tr, rt: rt}
		rt.stream = lane{tr: tr, rt: rt}
		tr.ranks[r] = rt
	}
	return tr
}

func (tr *tracer) now() int64 { return time.Since(tr.t0).Nanoseconds() }

// top returns the innermost open span of the lane, −1 if none.
func (l *lane) top() int32 {
	if l == nil || len(l.stack) == 0 {
		return -1
	}
	return l.stack[len(l.stack)-1]
}

// begin opens a span under the lane's innermost open span and returns its
// id, or −1 when tracing is off.
func (l *lane) begin(name spanName) int32 { return l.beginUnder(name, l.top()) }

func (l *lane) beginUnder(name spanName, parent int32) int32 {
	if l == nil || !l.tr.on.Load() {
		return -1
	}
	rt := l.rt
	rt.mu.Lock()
	id := int32(len(rt.spans))
	rt.spans = append(rt.spans, span{Name: name, Stream: l == &rt.stream, Rank: rt.rank,
		Op: rt.op.Load(), ID: id, Parent: parent, Start: l.tr.now()})
	rt.mu.Unlock()
	l.stack = append(l.stack, id)
	return id
}

// end closes the span begin returned; id −1 is a no-op.
func (l *lane) end(id int32, bytes int64) {
	if id < 0 {
		return
	}
	now := l.tr.now()
	rt := l.rt
	rt.mu.Lock()
	rt.spans[id].End = now
	rt.spans[id].Bytes = bytes
	rt.mu.Unlock()
	l.stack = l.stack[:len(l.stack)-1]
}

// laneOf returns the lane behind a probed endpoint (nil otherwise), which
// is how the reducer decorator and the harness find their parent span.
func laneOf(ep comm.Endpoint) *lane {
	if pe, ok := ep.(*probeEndpoint); ok {
		return pe.ln
	}
	return nil
}

// probeBackend wraps a comm.Backend so every worker receives a
// probeEndpoint. With a tracer the endpoint records spans; with a barrier
// hook it reports every SyncClock, which is how the training workload is
// timed and calibrated without touching train.Run.
type probeBackend struct {
	inner     comm.Backend
	tr        *tracer
	onBarrier func(rank int, ep comm.Endpoint)
}

func (b *probeBackend) Name() string { return b.inner.Name() }

func (b *probeBackend) Run(p int, worker func(rank int, ep comm.Endpoint)) *comm.Report {
	return b.inner.Run(p, func(rank int, ep comm.Endpoint) {
		pe := &probeEndpoint{inner: ep, onBarrier: b.onBarrier}
		if b.tr != nil {
			pe.ln = &b.tr.ranks[rank].main
		}
		worker(rank, pe)
	})
}

// probeEndpoint decorates a comm.Endpoint at the layer boundary every
// collective is written against. Nothing in the repository type-asserts an
// endpoint, so handing the decorator to reducers (and to Overlap bodies)
// is behaviour-preserving.
type probeEndpoint struct {
	inner     comm.Endpoint
	ln        *lane
	onBarrier func(rank int, ep comm.Endpoint)
}

func (e *probeEndpoint) Rank() int         { return e.inner.Rank() }
func (e *probeEndpoint) P() int            { return e.inner.P() }
func (e *probeEndpoint) Clock() float64    { return e.inner.Clock() }
func (e *probeEndpoint) Stats() comm.Stats { return e.inner.Stats() }
func (e *probeEndpoint) ResetStats()       { e.inner.ResetStats() }
func (e *probeEndpoint) Compute(d float64) { e.inner.Compute(d) }

func (e *probeEndpoint) Send(to int, payload any, bytes int) {
	id := e.ln.begin(spSend)
	e.inner.Send(to, payload, bytes)
	e.ln.end(id, int64(bytes))
}

func (e *probeEndpoint) Recv(from int) (any, int) {
	id := e.ln.begin(spRecv)
	payload, bytes := e.inner.Recv(from)
	e.ln.end(id, int64(bytes))
	return payload, bytes
}

// SendRecv is Send then Recv on every backend; going through the probed
// halves attributes the two separately.
func (e *probeEndpoint) SendRecv(peer int, payload any, bytes int) (any, int) {
	e.Send(peer, payload, bytes)
	return e.Recv(peer)
}

func (e *probeEndpoint) Overlap(body func(comm.Endpoint)) {
	if e.ln == nil {
		e.inner.Overlap(body)
		return
	}
	parent := e.ln.top()
	stream := &e.ln.rt.stream
	e.inner.Overlap(func(sep comm.Endpoint) {
		id := stream.beginUnder(spOverlap, parent)
		body(&probeEndpoint{inner: sep, ln: stream})
		stream.end(id, 0)
	})
}

func (e *probeEndpoint) Join() {
	id := e.ln.begin(spJoin)
	e.inner.Join()
	e.ln.end(id, 0)
}

func (e *probeEndpoint) SyncClock() {
	id := e.ln.begin(spBarrier)
	e.inner.SyncClock()
	e.ln.end(id, 0)
	if e.onBarrier != nil {
		e.onBarrier(e.inner.Rank(), e.inner)
	}
}

// tracedReducer records one span around each synchronization of the
// wrapped reducer. It forwards the in-place path and the residual view so
// the trainer and the correctness checks see the reducer they would have
// seen without it.
type tracedReducer struct {
	inner sparsecoll.Reducer
	name  spanName
}

// traceFactory decorates every reducer base builds.
func traceFactory(base sparsecoll.Factory, name spanName) sparsecoll.Factory {
	return func(p, rank, n, k int) sparsecoll.Reducer {
		return &tracedReducer{inner: base(p, rank, n, k), name: name}
	}
}

func (r *tracedReducer) Name() string { return r.inner.Name() }

func (r *tracedReducer) Reduce(ep comm.Endpoint, grad []float32) []float32 {
	out := make([]float32, len(grad))
	r.ReduceInto(ep, grad, out)
	return out
}

func (r *tracedReducer) ReduceInto(ep comm.Endpoint, grad, out []float32) {
	ln := laneOf(ep)
	id := ln.begin(r.name)
	sparsecoll.ReduceInto(r.inner, ep, grad, out)
	ln.end(id, 0)
}

func (r *tracedReducer) Residual() []float32 { return residualOf(r.inner) }

// residualOf returns a reducer's live residual, nil when it carries none.
func residualOf(r sparsecoll.Reducer) []float32 {
	if c, ok := r.(sparsecoll.ResidualCarrier); ok {
		return c.Residual()
	}
	return nil
}

// batchOwners maps a batch handed out by a tracedData to the lane of the
// rank that asked for it, so the model decorator — which train.Run builds
// without telling it a rank — can attribute its forward pass. Eval batches
// map to rank 0's lane and carry the train.eval span EvalBatch opened.
type batchOwners struct {
	tr *tracer
	m  sync.Map // *nn.Batch → batchOwner
}

type batchOwner struct {
	ln     *lane
	evalID int32 // open train.eval span the forward pass closes; −1 for a training batch
}

// tracedData decorates Case.NewData.
type tracedData struct {
	inner  data.Dataset
	owners *batchOwners
}

func (d *tracedData) Name() string { return d.inner.Name() }

func (d *tracedData) TrainBatch(worker, step, batchSize int) *nn.Batch {
	ln := &d.owners.tr.ranks[worker].main
	id := ln.begin(spBatch)
	b := d.inner.TrainBatch(worker, step, batchSize)
	ln.end(id, 0)
	d.owners.m.Store(b, batchOwner{ln: ln, evalID: -1})
	return b
}

func (d *tracedData) EvalBatch(batchSize int) *nn.Batch {
	ln := &d.owners.tr.ranks[0].main // train.Run evaluates on rank 0 only
	id := ln.begin(spEval)
	b := d.inner.EvalBatch(batchSize)
	d.owners.m.Store(b, batchOwner{ln: ln, evalID: id})
	return b
}

// tracedModel decorates Case.NewModel: Loss is the forward pass.
type tracedModel struct {
	inner  nn.Model
	owners *batchOwners
}

func (m *tracedModel) Params() []*nn.Tensor { return m.inner.Params() }

func (m *tracedModel) Loss(batch *nn.Batch) (*nn.Tensor, float64) {
	v, ok := m.owners.m.LoadAndDelete(batch)
	if !ok {
		return m.inner.Loss(batch)
	}
	o := v.(batchOwner)
	id := o.evalID
	if id < 0 {
		id = o.ln.begin(spFwd)
	}
	loss, metric := m.inner.Loss(batch)
	o.ln.end(id, 0)
	return loss, metric
}

// traceFileOps bounds how many ops of a run go to the trace file: enough
// to read a schedule, small enough to open in an editor. Metrics are
// computed from every span kept in memory.
const traceFileOps = 32

type spanJSON struct {
	Name    string `json:"name"`
	Lane    string `json:"lane"`
	Rank    int32  `json:"rank"`
	Op      int32  `json:"op"`
	ID      int32  `json:"id"`
	Parent  int32  `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Bytes   int64  `json:"bytes,omitempty"`
}

// writeFile stores the spans of the first traceFileOps traced ops as
// bench/out/trace-<workload>.json.
func (tr *tracer) writeFile(dir, workload string) (string, error) {
	firstOp := int32(-1)
	for _, rt := range tr.ranks {
		if len(rt.spans) > 0 && (firstOp < 0 || rt.spans[0].Op < firstOp) {
			firstOp = rt.spans[0].Op
		}
	}
	var out []spanJSON
	for _, rt := range tr.ranks {
		for _, s := range rt.spans {
			if s.Op >= firstOp+traceFileOps {
				break
			}
			lane := "main"
			if s.Stream {
				lane = "stream"
			}
			out = append(out, spanJSON{Name: spanNames[s.Name], Lane: lane, Rank: s.Rank, Op: s.Op,
				ID: s.ID, Parent: s.Parent, StartNs: s.Start, EndNs: s.End, Bytes: s.Bytes})
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace directory: %w", err)
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	buf, err := json.Marshal(struct {
		Workload string     `json:"workload"`
		Spans    []spanJSON `json:"spans"`
	}{workload, out})
	if err != nil {
		return "", fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return "", fmt.Errorf("writing trace: %w", err)
	}
	return path, nil
}
