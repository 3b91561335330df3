//go:build race

package sparse

// raceEnabled: a -race build keeps the gradient add and every dense add
// in Go, where the race detector sees their reads and writes; it does not
// see the ones made in assembly. gc may also give a float addition its
// operands in the other order there, and with them which of two NaNs
// survives.
const raceEnabled = true
