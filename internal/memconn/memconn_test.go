package memconn

import (
	"bytes"
	"errors"
	"io"
	"math/rand/v2"
	"net"
	"os"
	"sync"
	"testing"
	"time"

	"edonkey/internal/testenv"
)

// A conformance suite in the spirit of golang.org/x/net/nettest, which is
// not vendored here: what edonkey.Network, the gateway's pooled frames
// and serve.ServeConn rely on, one test per promise.

// requireTimeout checks err is the deadline error in both of its guises.
func requireTimeout(t *testing.T, what string, err error) {
	t.Helper()
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("%s: err = %v, want os.ErrDeadlineExceeded", what, err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("%s: %v is not a net.Error with Timeout() true", what, err)
	}
}

// Every byte arrives, in order, whatever the chunking on either side —
// including one Write far larger than anything the reader asks for.
func TestTransferIsByteExact(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	payload := make([]byte, 3<<20)
	for i := range payload {
		payload[i] = byte(rng.Uint32())
	}
	for _, tc := range []struct {
		name            string
		maxWrite, maxRd int
	}{
		{"one write, small reads", len(payload), 4096},
		{"small writes, one big read buffer", 1000, len(payload)},
		{"random both", 70000, 50000},
		{"byte reads", 4096, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := payload
			if tc.maxRd == 1 {
				data = payload[:64<<10]
			}
			a, b := Pipe()
			wrng := rand.New(rand.NewPCG(3, 4))
			werr := make(chan error, 1)
			go func() {
				defer a.Close()
				for rest := data; len(rest) > 0; {
					n := min(len(rest), 1+wrng.IntN(tc.maxWrite))
					m, err := a.Write(rest[:n])
					if err != nil || m != n {
						werr <- errors.Join(err, io.ErrShortWrite)
						return
					}
					rest = rest[n:]
				}
				werr <- nil
			}()
			var got bytes.Buffer
			buf := make([]byte, tc.maxRd)
			for {
				n, err := b.Read(buf[:1+rng.IntN(tc.maxRd)])
				got.Write(buf[:n])
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
			}
			if err := <-werr; err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), data) {
				t.Fatalf("received %d bytes that differ from the %d sent", got.Len(), len(data))
			}
		})
	}
}

// The two directions are independent: both ends can be mid-Write at once
// as long as both are also read.
func TestFullDuplex(t *testing.T) {
	a, b := Pipe()
	msg := bytes.Repeat([]byte("x"), 1<<16)
	var wg sync.WaitGroup
	for _, c := range []net.Conn{a, b} {
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := c.Write(msg); err != nil {
				t.Error(err)
			}
		}()
		go func() {
			defer wg.Done()
			if _, err := io.ReadFull(c, make([]byte, len(msg))); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
}

func TestPastDeadlineFailsImmediately(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	past := time.Now().Add(-time.Second)

	a.SetReadDeadline(past)
	_, err := a.Read(make([]byte, 1))
	requireTimeout(t, "Read", err)
	// A pending Write does not rescue it: the deadline is checked first.
	go b.Write([]byte("x"))
	time.Sleep(5 * time.Millisecond)
	_, err = a.Read(make([]byte, 1))
	requireTimeout(t, "Read with data pending", err)
	a.SetReadDeadline(time.Time{})
	if n, err := a.Read(make([]byte, 1)); n != 1 || err != nil {
		t.Fatalf("Read after clearing the deadline = %d, %v", n, err)
	}

	a.SetWriteDeadline(past)
	n, err := a.Write([]byte("x"))
	requireTimeout(t, "Write", err)
	if n != 0 {
		t.Fatalf("timed-out Write reports %d bytes", n)
	}
	// The timeout is not sticky beyond the deadline itself.
	a.SetDeadline(time.Time{})
	go io.ReadFull(b, make([]byte, 1))
	if _, err := a.Write([]byte("y")); err != nil {
		t.Fatalf("Write after clearing the deadline: %v", err)
	}
}

func TestDeadlineFiresWhileBlocked(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	const d = 30 * time.Millisecond

	start := time.Now()
	a.SetReadDeadline(start.Add(d))
	_, err := a.Read(make([]byte, 1))
	requireTimeout(t, "blocked Read", err)
	if el := time.Since(start); el < d {
		t.Fatalf("Read gave up after %v, before its %v deadline", el, d)
	}

	start = time.Now()
	a.SetWriteDeadline(start.Add(d))
	n, err := a.Write([]byte("nobody reads this"))
	requireTimeout(t, "blocked Write", err)
	if el := time.Since(start); el < d || n != 0 {
		t.Fatalf("Write gave up after %v with n=%d", el, n)
	}
}

// A Write that times out half consumed reports how far it got, and takes
// the rest back: the reader never sees bytes of a slice whose Write has
// returned, which is what lets callers recycle frame buffers.
func TestWriteDoesNotRetainItsSlice(t *testing.T) {
	a, b := Pipe()
	defer a.Close()
	defer b.Close()
	msg := []byte("0123456789")
	got := make(chan []byte, 1)
	go func() {
		buf := make([]byte, 4)
		io.ReadFull(b, buf)
		got <- buf
	}()
	a.SetWriteDeadline(time.Now().Add(30 * time.Millisecond))
	n, err := a.Write(msg)
	requireTimeout(t, "half-read Write", err)
	if n != 4 || string(<-got) != "0123" {
		t.Fatalf("Write reports %d bytes consumed, want 4", n)
	}
	copy(msg, "XXXXXXXXXX")
	b.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if n, err := b.Read(make([]byte, 16)); n != 0 {
		t.Fatalf("Read after the Write returned got %d bytes (err %v)", n, err)
	}
}

func TestDeadlineMovedWhileBlocked(t *testing.T) {
	type result struct {
		n       int
		err     error
		elapsed time.Duration
	}
	blockedRead := func(c net.Conn) <-chan result {
		out := make(chan result, 1)
		start := time.Now()
		go func() {
			n, err := c.Read(make([]byte, 8))
			out <- result{n, err, time.Since(start)}
		}()
		time.Sleep(5 * time.Millisecond) // let it block
		return out
	}

	t.Run("extended", func(t *testing.T) {
		a, b := Pipe()
		defer a.Close()
		defer b.Close()
		start := time.Now()
		a.SetReadDeadline(start.Add(30 * time.Millisecond))
		out := blockedRead(a)
		a.SetReadDeadline(start.Add(120 * time.Millisecond))
		r := <-out
		requireTimeout(t, "Read", r.err)
		if r.elapsed < 110*time.Millisecond {
			t.Fatalf("Read timed out after %v: the extension was ignored", r.elapsed)
		}
	})
	t.Run("cleared", func(t *testing.T) {
		a, b := Pipe()
		defer a.Close()
		defer b.Close()
		a.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
		out := blockedRead(a)
		a.SetReadDeadline(time.Time{})
		select {
		case r := <-out:
			t.Fatalf("Read returned %d, %v with its deadline cleared", r.n, r.err)
		case <-time.After(80 * time.Millisecond):
		}
		if _, err := b.Write([]byte("late")); err != nil {
			t.Fatal(err)
		}
		if r := <-out; r.n != 4 || r.err != nil {
			t.Fatalf("Read = %d, %v, want the 4 late bytes", r.n, r.err)
		}
	})
	t.Run("set on a call blocked without one", func(t *testing.T) {
		a, b := Pipe()
		defer a.Close()
		defer b.Close()
		out := blockedRead(a)
		a.SetDeadline(time.Now().Add(20 * time.Millisecond))
		select {
		case r := <-out:
			requireTimeout(t, "Read", r.err)
		case <-time.After(5 * time.Second):
			t.Fatal("Read ignored a deadline set while it was blocked")
		}
	})
	t.Run("write deadline shortened", func(t *testing.T) {
		a, b := Pipe()
		defer a.Close()
		defer b.Close()
		a.SetWriteDeadline(time.Now().Add(time.Hour))
		out := make(chan error, 1)
		go func() {
			_, err := a.Write([]byte("x"))
			out <- err
		}()
		time.Sleep(5 * time.Millisecond)
		a.SetWriteDeadline(time.Now().Add(10 * time.Millisecond))
		select {
		case err := <-out:
			requireTimeout(t, "Write", err)
		case <-time.After(5 * time.Second):
			t.Fatal("Write ignored its shortened deadline")
		}
	})
}

// Close from either end unblocks the other end's Read and Write, and the
// closing end's own.
func TestCloseUnblocks(t *testing.T) {
	for _, tc := range []struct {
		name       string
		write      bool // the blocked call is a Write
		closeOther bool // the end that is not blocked closes
		want       error
	}{
		{"peer closes under Read", false, true, io.EOF},
		{"peer closes under Write", true, true, io.ErrClosedPipe},
		{"own Close under Read", false, false, io.ErrClosedPipe},
		{"own Close under Write", true, false, io.ErrClosedPipe},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := Pipe()
			defer a.Close()
			defer b.Close()
			// A deadline too, so the blocked call holds an armed alarm.
			a.SetDeadline(time.Now().Add(time.Hour))
			out := make(chan error, 1)
			go func() {
				var err error
				if tc.write {
					_, err = a.Write([]byte("x"))
				} else {
					_, err = a.Read(make([]byte, 1))
				}
				out <- err
			}()
			time.Sleep(5 * time.Millisecond)
			closer := a
			if tc.closeOther {
				closer = b
			}
			if err := closer.Close(); err != nil {
				t.Fatal(err)
			}
			select {
			case err := <-out:
				if err != tc.want {
					t.Fatalf("blocked call returned %v, want %v", err, tc.want)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Close did not unblock the call")
			}
		})
	}
}

func TestAfterClose(t *testing.T) {
	a, b := Pipe()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := a.Read(make([]byte, 1)); err != io.ErrClosedPipe {
		t.Errorf("Read on a closed end: %v", err)
	}
	if _, err := a.Write([]byte("x")); err != io.ErrClosedPipe {
		t.Errorf("Write on a closed end: %v", err)
	}
	if err := a.SetDeadline(time.Now()); err != io.ErrClosedPipe {
		t.Errorf("SetDeadline on a closed end: %v", err)
	}
	if _, err := b.Read(make([]byte, 1)); err != io.EOF {
		t.Errorf("Read from a closed peer: %v", err)
	}
	if _, err := b.Write([]byte("x")); err != io.ErrClosedPipe {
		t.Errorf("Write to a closed peer: %v", err)
	}
	if a.LocalAddr().Network() != b.RemoteAddr().Network() {
		t.Error("the two ends disagree about their network")
	}
}

// Many goroutines on both ends at once, deadlines being set all the
// while and, every other round, a Close from one end or the other landing
// in the middle: nothing may hang or race, and what the Writes report as
// consumed is what the Reads got.
func TestConcurrentUse(t *testing.T) {
	for round := range 20 {
		a, b := Pipe()
		const writers, perWriter = 4, 200
		var mu sync.Mutex
		var sent, received [writers]int
		var writing, reading sync.WaitGroup
		for w := range writers {
			writing.Add(1)
			go func() {
				defer writing.Done()
				msg := []byte{byte(w), byte(w), byte(w)}
				for range perWriter {
					a.SetWriteDeadline(time.Now().Add(time.Minute))
					n, err := a.Write(msg)
					mu.Lock()
					sent[w] += n
					mu.Unlock()
					if err != nil {
						return
					}
				}
			}()
		}
		for range 3 {
			reading.Add(1)
			go func() {
				defer reading.Done()
				buf := make([]byte, 2)
				for {
					b.SetReadDeadline(time.Now().Add(time.Minute))
					n, err := b.Read(buf)
					mu.Lock()
					for _, w := range buf[:n] {
						received[w]++
					}
					mu.Unlock()
					if err != nil {
						return
					}
				}
			}()
		}
		if round%2 == 1 {
			early := []net.Conn{a, b}[round/2%2]
			go func() {
				time.Sleep(time.Duration(round) * 100 * time.Microsecond)
				early.Close()
			}()
		}
		done := make(chan struct{})
		go func() {
			writing.Wait()
			a.Close() // the readers' end of stream
			reading.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("round %d hung", round)
		}
		b.Close()
		if sent != received {
			t.Fatalf("round %d: Writes report %v bytes consumed, Reads got %v", round, sent, received)
		}
		if round%2 == 0 && sent[0] != 3*perWriter {
			t.Fatalf("round %d: an undisturbed writer got %d of %d bytes through", round, sent[0], 3*perWriter)
		}
	}
}

// The tier-1 twin of the crawl's transport cost: a dial's worth of
// traffic — Pipe, two round trips with a deadline set before every
// message as edonkey's exchanges do, Close — costs the pair and nothing
// else. A timer per blocked call, let alone per SetDeadline, would show
// up here as three objects each.
func TestRoundTripAllocs(t *testing.T) {
	if testenv.Race() {
		t.Skip("sync.Pool sheds alarms under the race detector")
	}
	conns := make(chan net.Conn)
	served := make(chan struct{})
	go func() {
		defer close(served)
		buf := make([]byte, 64)
		for c := range conns {
			for {
				c.SetDeadline(time.Now().Add(5 * time.Second))
				n, err := c.Read(buf)
				if err != nil {
					break
				}
				c.SetDeadline(time.Now().Add(5 * time.Second))
				if _, err := c.Write(buf[:n]); err != nil {
					break
				}
			}
			c.Close()
		}
	}()
	msg, buf := []byte("ping"), make([]byte, 64)
	dial := func() {
		a, b := Pipe()
		conns <- b
		for range 2 {
			a.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := a.Write(msg); err != nil {
				t.Error(err)
			}
			a.SetDeadline(time.Now().Add(5 * time.Second))
			if n, err := a.Read(buf); err != nil || n != len(msg) {
				t.Errorf("echo = %d, %v", n, err)
			}
		}
		a.Close()
	}
	dial()
	if n := testing.AllocsPerRun(500, dial); n > 1 {
		t.Errorf("a dial allocates %v objects, want 1 (the pair)", n)
	}
	close(conns)
	<-served
}
