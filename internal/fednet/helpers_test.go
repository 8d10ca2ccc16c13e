package fednet

import (
	"io"
	"net"
	"sync"
)

// dialConn hands out one pre-established connection, for single-attempt
// clients over net.Pipe.
func dialConn(conn net.Conn) func() (net.Conn, error) {
	return func() (net.Conn, error) { return conn, nil }
}

// dialTCP dials addr afresh on every attempt.
func dialTCP(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

// serveConns is Serve for pre-established connections (net.Pipe
// server ends); a zero Expect means one device per connection.
func serveConns(s *Server, conns []net.Conn) (ServeStats, error) {
	srv := *s
	if srv.Expect == 0 {
		srv.Expect = len(conns)
	}
	return srv.Serve(&staticListener{conns: conns})
}

// staticListener hands out a fixed set of connections, then io.EOF.
type staticListener struct {
	mu    sync.Mutex
	conns []net.Conn
}

func (l *staticListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.conns) == 0 {
		return nil, io.EOF
	}
	c := l.conns[0]
	l.conns = l.conns[1:]
	return c, nil
}

func (l *staticListener) Close() error { return nil }

func (l *staticListener) Addr() net.Addr { return staticAddr{} }

type staticAddr struct{}

func (staticAddr) Network() string { return "static" }
func (staticAddr) String() string  { return "static" }
