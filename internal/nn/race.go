//go:build race

package nn

// raceEnabled: a -race build keeps two generations of tape nodes and
// poisons the one a pass leaves behind when the next pass starts (see
// tape.rewind), so a tensor read after its model's next Loss reads NaN.
const raceEnabled = true
