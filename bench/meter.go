package main

import (
	"runtime"
	"time"
)

// block is one run of consecutive timed ops bracketed by two readings of
// the calibration kernel. Ops inside a block are barrier-to-barrier on
// rank 0; the gap between blocks (kernel, MemStats, trace flip) is never
// inside a sample.
type block struct {
	traced     bool
	calBefore  float64   // kernel ms just before the block
	calAfter   float64   // kernel ms just after it
	samples    []float64 // raw ms per op
	mallocs    uint64    // heap allocations during the block, whole process
	gcPauseNs  uint64
	startMalls uint64
	startPause uint64
}

// factor is the block's raw→calibrated multiplier.
func (b *block) factor() float64 { return calFactor(b.calBefore, b.calAfter) }

// meter owns the timing of one workload run. Exactly one goroutine — the
// rank-0 worker — calls its methods, and only while every other worker is
// parked at a barrier (gap) or from inside its own op (sample), so it
// needs no locking.
type meter struct {
	cal    *calKernel
	tr     *tracer // nil on untraced runs
	blocks []*block
	cur    *block
	ops    int // timed ops so far
	heapMB float64
	began  time.Time // first gap: start of the timed window
}

func newMeter(cal *calKernel, tr *tracer) *meter { return &meter{cal: cal, tr: tr} }

// gap closes the open block, if any, and — unless final — opens the next
// one. On traced runs blocks alternate untraced/traced so the overhead
// figure compares neighbours in time. final also takes the heap reading:
// the fabric, reducers and model are still alive, every worker is parked.
func (m *meter) gap(final bool) {
	var ms runtime.MemStats
	if m.cur != nil {
		runtime.ReadMemStats(&ms)
		m.cur.mallocs = ms.Mallocs - m.cur.startMalls
		m.cur.gcPauseNs = ms.PauseTotalNs - m.cur.startPause
	}
	if final {
		if m.tr != nil {
			m.tr.on.Store(false)
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		m.heapMB = float64(ms.HeapInuse) / 1e6
	}
	reading := m.cal.read()
	if m.cur != nil {
		m.cur.calAfter = reading
		m.blocks = append(m.blocks, m.cur)
		m.cur = nil
	} else {
		m.began = time.Now()
	}
	if final {
		return
	}
	b := &block{calBefore: reading}
	if m.tr != nil {
		b.traced = len(m.blocks)%2 == 1
		m.tr.on.Store(b.traced)
	}
	runtime.ReadMemStats(&ms)
	b.startMalls, b.startPause = ms.Mallocs, ms.PauseTotalNs
	m.cur = b
}

// sample records one op's raw barrier-to-barrier time.
func (m *meter) sample(d time.Duration) {
	m.cur.samples = append(m.cur.samples, float64(d.Nanoseconds())/1e6)
	m.ops++
}

// elapsed is the wall time since the timed window opened.
func (m *meter) elapsed() float64 { return time.Since(m.began).Seconds() }

// opMs is the calibrated per-op time: per block the median sample times
// the block's factor, then the median over the selected blocks.
func opMs(blocks []*block) float64 {
	var per []float64
	for _, b := range blocks {
		if len(b.samples) > 0 {
			per = append(per, calibrate(median(b.samples), b.calBefore, b.calAfter))
		}
	}
	return median(per)
}

// selectBlocks filters by traced flag.
func selectBlocks(blocks []*block, traced bool) []*block {
	var out []*block
	for _, b := range blocks {
		if b.traced == traced {
			out = append(out, b)
		}
	}
	return out
}

func allSamples(blocks []*block) []float64 {
	var out []float64
	for _, b := range blocks {
		out = append(out, b.samples...)
	}
	return out
}
