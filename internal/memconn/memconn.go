// Package memconn provides an in-memory, full-duplex net.Conn pair for
// connections that live for a handful of messages and are made by the
// hundred thousand: the browse dials of a simulated crawl.
//
// net.Pipe has the right semantics and the wrong cost model for that
// use: every SetDeadline arms fresh time.AfterFunc timers that Close
// never stops, so a dial that bounds each of its four messages leaves
// thirty heap objects and a set of armed timers behind it. Here a pair
// is one allocation, setting a deadline stores a time, and a timer is
// touched only when a call actually has to sleep under a deadline — and
// then it is borrowed from a pool shared by every connection and handed
// back, stopped, when the call returns.
package memconn

import (
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Pipe returns the two ends of a synchronous in-memory connection. As
// with net.Pipe nothing is buffered: a Write lends its slice to the
// peer's Reads and returns once they have consumed all of it (or the
// call fails), and never touches the slice afterwards. Both ends are
// safe for concurrent use; concurrent Writes on one end are delivered
// one after the other.
//
// Deadlines behave as on a network connection: an expired deadline fails
// the call with os.ErrDeadlineExceeded before it does anything, a
// deadline that passes while a call is blocked unblocks it, and one that
// is moved or cleared meanwhile takes effect on the blocked call. Close
// unblocks everything on both ends: the closing end's own calls return
// io.ErrClosedPipe, the peer's Reads io.EOF and its Writes
// io.ErrClosedPipe.
func Pipe() (net.Conn, net.Conn) {
	p := new(pipe)
	for i := range p.ends {
		e := &p.ends[i]
		e.mu = &p.mu
		e.peer = &p.ends[1-i]
		e.in.cond.L = &p.mu
	}
	return &p.ends[0], &p.ends[1]
}

// pipe is the whole connection, both ends and both directions, in one
// object under one lock: at most two goroutines ever meet on it.
type pipe struct {
	mu   sync.Mutex
	ends [2]end
}

type end struct {
	mu   *sync.Mutex // the pipe's
	peer *end

	closed        bool
	readDeadline  time.Time
	writeDeadline time.Time

	in stream // what the peer writes and this end reads
}

// stream is one direction. Its readers, the Write that has posted and
// any Writes queued behind it all wait on the one cond; with a single
// goroutine per end there is never more than one of them asleep.
type stream struct {
	cond   sync.Cond
	data   []byte // unread rest of the posted Write's slice
	posted bool   // a Write owns the stream until its data is consumed or withdrawn
}

func expired(deadline time.Time) bool {
	return !deadline.IsZero() && !time.Now().Before(deadline)
}

func (e *end) Read(b []byte) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := &e.in
	var w waiter
	defer w.done()
	for {
		switch {
		case e.closed:
			return 0, io.ErrClosedPipe
		case expired(e.readDeadline):
			return 0, os.ErrDeadlineExceeded
		case len(b) == 0:
			return 0, nil
		case len(s.data) > 0:
			n := copy(b, s.data)
			s.data = s.data[n:]
			if len(s.data) == 0 {
				s.cond.Broadcast() // the posted Write waits for exactly this
			}
			return n, nil
		case e.peer.closed:
			return 0, io.EOF
		}
		w.wait(&s.cond, e.readDeadline)
	}
}

func (e *end) Write(b []byte) (int, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := &e.peer.in
	var w waiter
	defer w.done()
	for {
		if err := e.writeErr(); err != nil {
			return 0, err
		}
		if !s.posted {
			break
		}
		w.wait(&s.cond, e.writeDeadline)
	}
	if len(b) == 0 {
		return 0, nil
	}
	s.posted, s.data = true, b
	s.cond.Broadcast()
	var err error
	for len(s.data) > 0 && err == nil {
		w.wait(&s.cond, e.writeDeadline)
		err = e.writeErr()
	}
	// Withdraw whatever is left: b is the caller's again from here.
	n := len(b) - len(s.data)
	if n == len(b) {
		err = nil
	}
	s.posted, s.data = false, nil
	s.cond.Broadcast()
	return n, err
}

// writeErr reports why a Write on e may not start or go on waiting.
func (e *end) writeErr() error {
	switch {
	case e.closed, e.peer.closed:
		return io.ErrClosedPipe
	case expired(e.writeDeadline):
		return os.ErrDeadlineExceeded
	}
	return nil
}

func (e *end) Close() error {
	e.mu.Lock()
	e.closed = true
	e.in.cond.Broadcast()
	e.peer.in.cond.Broadcast()
	e.mu.Unlock()
	return nil
}

func (e *end) SetDeadline(t time.Time) error      { return e.setDeadlines(t, true, true) }
func (e *end) SetReadDeadline(t time.Time) error  { return e.setDeadlines(t, true, false) }
func (e *end) SetWriteDeadline(t time.Time) error { return e.setDeadlines(t, false, true) }

// setDeadlines stores t and wakes the calls it bounds, so that they
// measure their wait against the new deadline.
func (e *end) setDeadlines(t time.Time, read, write bool) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return io.ErrClosedPipe
	}
	if read {
		e.readDeadline = t
		e.in.cond.Broadcast()
	}
	if write {
		e.writeDeadline = t
		e.peer.in.cond.Broadcast()
	}
	return nil
}

type addr struct{}

func (addr) Network() string { return "memconn" }
func (addr) String() string  { return "memconn" }

func (*end) LocalAddr() net.Addr  { return addr{} }
func (*end) RemoteAddr() net.Addr { return addr{} }

// waiter is the clock of one blocked call. The first time the call has
// to sleep under a deadline it borrows an alarm; done hands it back.
type waiter struct{ a *alarm }

// wait sleeps on c, whose lock the caller holds, until c is signalled
// or deadline (the zero time for none) passes. Either way the caller
// looks at its state again, deadline included.
func (w *waiter) wait(c *sync.Cond, deadline time.Time) {
	if !deadline.IsZero() {
		if w.a == nil {
			w.a = alarms.Get().(*alarm)
			w.a.cond.Store(c)
		}
		w.a.timer.Reset(time.Until(deadline))
	}
	c.Wait()
}

func (w *waiter) done() {
	if w.a == nil {
		return
	}
	w.a.timer.Stop()
	w.a.cond.Store(nil)
	alarms.Put(w.a)
}

// alarm is a timer that wakes whoever currently holds it. A firing that
// was already on its way when the alarm changed hands wakes the wrong
// sleeper, or one who no longer needs it; both just look at their state
// and go back to sleep.
type alarm struct {
	timer *time.Timer
	cond  atomic.Pointer[sync.Cond]
}

var alarms = sync.Pool{New: func() any {
	a := new(alarm)
	a.timer = time.AfterFunc(time.Hour, a.fire)
	a.timer.Stop()
	return a
}}

func (a *alarm) fire() {
	if c := a.cond.Load(); c != nil {
		// Under the lock, or the broadcast could fall between a sleeper's
		// look at the clock and its Wait.
		c.L.Lock()
		c.Broadcast()
		c.L.Unlock()
	}
}
