package tcpnet

import (
	"net"
	"time"
)

// acceptUnderListenerDeadline is the hole the caller-path rule had: the
// listener's deadline bounds Accept, not the accepted conn's Read.
func acceptUnderListenerDeadline(ln *net.TCPListener, deadline time.Time, buf []byte) error {
	ln.SetDeadline(deadline)
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	_, err = conn.Read(buf) // want `conn is used with no deadline set on it since Accept returned it at line \d+`
	return err
}

// wrongConn sets a deadline, but on the other conn.
func wrongConn(addr string, other net.Conn, deadline time.Time, hello []byte) error {
	conn, err := dial(addr, deadline)
	if err != nil {
		return err
	}
	other.SetDeadline(deadline)
	_, err = conn.Write(hello) // want `conn is used with no deadline set on it since dial returned it`
	return err
}

// handOff passes the conn on before bounding it; whatever the callee does
// is out of this function's sight.
func handOff(addr string, deadline time.Time, register func(net.Conn)) error {
	conn, err := dial(addr, deadline)
	if err != nil {
		return err
	}
	register(conn) // want `conn is used with no deadline set on it`
	conn.SetDeadline(deadline)
	return nil
}

// acceptLoop blocks in Accept on a listener nobody bounded, inside a
// goroutine literal — the mesh's shape.
func acceptLoop(addr string, conns chan<- net.Conn) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	go func() {
		for {
			conn, err := ln.Accept() // want `ln is used with no deadline set on it since Listen returned it`
			if err != nil {
				return
			}
			conns <- conn // want `conn is used with no deadline set on it since Accept returned it`
		}
	}()
	return nil
}
