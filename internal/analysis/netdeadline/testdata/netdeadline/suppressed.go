package tcpnet

import "net"

// fleetListener binds the rendezvous port and hands the live listener to
// rank 0, which sets the deadline before it accepts — the suppression
// names who does.
func fleetListener(start func(net.Listener)) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	start(ln) //spardl:netdeadline-ok handed live to rank 0, whose serve loop sets the listener deadline before its first Accept
	return nil
}
