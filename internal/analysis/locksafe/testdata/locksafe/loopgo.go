package lockfix

import "net"

// retryDial leaks one socket per failed background write: nothing closes
// conn inside the goroutine.
func retryDial(addrs []string) {
	for _, addr := range addrs {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			continue
		}
		go func(a string) { // want `loop goroutine captures connection conn without closing it`
			conn.Write([]byte(a))
		}(addr)
	}
}

// probe closes the conn on every path — no leak.
func probe(addrs []string) {
	for _, addr := range addrs {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			continue
		}
		go func(a string) {
			defer conn.Close()
			conn.Write([]byte(a))
		}(addr)
	}
}
