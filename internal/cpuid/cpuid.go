// Package cpuid is the repository's one CPU feature probe. It runs CPUID
// once, at start-up, and every package with an assembly fast path (nn's
// MatMul and elementwise passes, sparse's warm top-k filter) reads the
// answer here instead of asking the CPU itself.
package cpuid

// HasAVX2 reports whether the CPU executes AVX2 and the OS saves the YMM
// registers across context switches. It is set before any importing
// package's init runs, and is false on every GOARCH but amd64.
var HasAVX2 bool

// HasAVX512 reports whether, on top of HasAVX2, the CPU executes AVX-512
// Foundation and the OS saves the opmask and ZMM registers. Like HasAVX2
// it is set before any importing package's init runs.
var HasAVX512 bool
