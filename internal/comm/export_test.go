package comm

// SetVecZeroCopy makes Send lend a Vec's memory to the link and CopyTo move
// a view into place with one memmove (on), or encode and decode them as a
// big-endian host must (off), whatever the host's byte order, and returns
// the function that restores the host's setting. Call it only while no
// fabric is running.
func SetVecZeroCopy(on bool) (restore func()) {
	was := vecZeroCopy
	vecZeroCopy = on
	return func() { vecZeroCopy = was }
}
