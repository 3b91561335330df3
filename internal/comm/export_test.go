package comm

// SetVecZeroCopy makes Send lend a Vec's memory to the link (on) or encode
// it as a big-endian host must (off), whatever the host's byte order, and
// returns the function that restores the host's setting. Call it only
// while no fabric is running.
func SetVecZeroCopy(on bool) (restore func()) {
	was := vecZeroCopy
	vecZeroCopy = on
	return func() { vecZeroCopy = was }
}
