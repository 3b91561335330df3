package tcpnet

import (
	"net"
	"time"
)

// dial stands in for tcpnet's dialRetry: returning the conn hands the
// deadline obligation to the caller, whose assignment is the birth.
func dial(addr string, deadline time.Time) (net.Conn, error) {
	d := net.Dialer{Deadline: deadline}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return conn, nil
}

// checkIn sets the deadline on the conn it was just handed before the
// first byte moves; the deferred Close may come first.
func checkIn(addr string, deadline time.Time, hello []byte) error {
	conn, err := dial(addr, deadline)
	if err != nil {
		return err
	}
	defer conn.Close()
	conn.SetDeadline(deadline)
	_, err = conn.Write(hello)
	return err
}

// serve bounds the listener through the concrete type, then every conn it
// accepts; clearing the deadline later (the data plane is force-closed
// instead) is not this rule's business.
func serve(addr string, deadline time.Time, buf []byte, register func(net.Conn)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	_ = ln.Addr().String()
	ln.(*net.TCPListener).SetDeadline(deadline)
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		conn.SetReadDeadline(deadline)
		if _, err := conn.Read(buf); err != nil {
			conn.Close()
			continue
		}
		conn.SetDeadline(time.Time{})
		register(conn)
	}
}

// reserve never blocks on the listener: Addr and Close need no deadline.
func reserve() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}
