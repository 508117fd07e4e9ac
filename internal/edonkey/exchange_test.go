package edonkey

import (
	"errors"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"edonkey/internal/protocol"
	"edonkey/internal/testenv"
)

// The browse exchange checks both replies where they lie instead of
// decoding them. These tests are the other half of that bargain: each
// check is held by a peer that would get past it if it were gone.

// mustFrame encodes m.
func mustFrame(t *testing.T, m protocol.Message) []byte {
	t.Helper()
	frame, err := protocol.AppendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// resize returns frame with extra bytes added to (or, negative, cut
// from) its payload and the size field telling the truth about it, so
// that the frame layer passes it and the payload check has to catch it.
func resize(frame []byte, extra int) []byte {
	out := append([]byte(nil), frame...)
	if extra < 0 {
		out = out[:len(out)+extra]
	} else {
		out = append(out, make([]byte, extra)...)
	}
	size := uint32(len(out) - 5)
	out[1], out[2], out[3], out[4] = byte(size), byte(size>>8), byte(size>>16), byte(size>>24)
	return out
}

// scriptedPeer listens on ep and answers the requests of each dial with
// replies, in order and unconditionally, then reads on without a word
// until the dialler hangs up.
func scriptedPeer(t *testing.T, n *Network, ep protocol.Endpoint, replies ...[]byte) {
	t.Helper()
	err := n.Listen(ep, func(c net.Conn) {
		defer c.Close()
		var scratch []byte
		for _, reply := range replies {
			var err error
			if _, _, scratch, err = protocol.ReadFrame(c, scratch); err != nil {
				return
			}
			if _, err := c.Write(reply); err != nil {
				return
			}
		}
		for err := error(nil); err == nil; {
			_, _, scratch, err = protocol.ReadFrame(c, scratch)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Unlisten(ep) })
}

func TestBrowseChecksTheHandshakeReply(t *testing.T) {
	hello := mustFrame(t, &protocol.HelloAnswer{UserHash: hashOf(7), Nickname: "bbb_7"})
	files := []protocol.FileEntry{{Hash: hashOf(0xCC), Size: 7, Name: "x.mp3", Type: "audio"}}
	answer := mustFrame(t, &protocol.SharedFilesAnswer{Files: files})
	for _, tc := range []struct {
		name    string
		reply   []byte
		wantErr string // "" for a browse that must succeed
	}{
		{"well formed", hello, ""},
		{"another message", mustFrame(t, &protocol.IDChange{ClientID: 9}), "unexpected hello reply *protocol.IDChange"},
		{"a reject", mustFrame(t, &protocol.Reject{Reason: "no"}), "unexpected hello reply *protocol.Reject"},
		{"an unknown opcode", []byte{protocol.ProtoMarker, 1, 0, 0, 0, 0xEE}, "unknown opcode"},
		{"trailing bytes", resize(hello, 3), "trailing bytes"},
		{"nickname cut short", resize(hello, -2), "unreasonable string length"},
		{"hash cut short", resize(hello, -12), "truncated"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := NewNetwork()
			scriptedPeer(t, n, ep(20), tc.reply, answer)
			got, err := NewClient(n, hashOf(4), ep(21), "crawler").Browse(ep(20))
			if tc.wantErr == "" {
				if err != nil || len(got) != 1 || got[0] != files[0] {
					t.Fatalf("browse = %+v, %v", got, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("browse error = %v, want one about %q", err, tc.wantErr)
			}
		})
	}
}

func TestBrowseChecksTheAnswerList(t *testing.T) {
	hello := mustFrame(t, &protocol.HelloAnswer{UserHash: hashOf(7), Nickname: "bbb_7"})
	answer := mustFrame(t, &protocol.SharedFilesAnswer{Files: []protocol.FileEntry{
		{Hash: hashOf(0xCC), Size: 7, Name: "x.mp3", Type: "audio"},
		{Hash: hashOf(0xCD), Size: 8, Name: "y.mp3", Type: "audio"},
	}})
	lying := append([]byte(nil), answer...)
	lying[6] = 3 // the count, first byte of the payload: three entries where two follow
	for name, reply := range map[string][]byte{
		"count larger than the list": lying,
		"entry cut short":            resize(answer, -5),
		"bytes after the last entry": resize(answer, 4),
	} {
		t.Run(name, func(t *testing.T) {
			n := NewNetwork()
			scriptedPeer(t, n, ep(20), hello, reply)
			c := NewClient(n, hashOf(4), ep(21), "crawler")
			if list, err := c.BrowseList(ep(20)); err == nil {
				t.Fatalf("BrowseList accepted a malformed list of %d bytes", len(list))
			}
		})
	}
}

// DialTimeout bounds every exchange: a peer that takes the request and
// never answers costs the timeout, not the crawl.
func TestDialTimeoutBoundsTheExchange(t *testing.T) {
	n := NewNetwork()
	n.DialTimeout = 40 * time.Millisecond
	scriptedPeer(t, n, ep(20)) // reads, never replies
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := NewClient(n, hashOf(4), ep(21), "crawler").Browse(ep(20))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("browse of a mute peer: %v, want a deadline error", err)
		}
		if el := time.Since(start); el < n.DialTimeout {
			t.Fatalf("gave up after %v, before the %v timeout", el, n.DialTimeout)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("browse of a mute peer hung: DialTimeout is not enforced")
	}
}

// A timeout of zero or less lifts the bound; it used to put the deadline
// at or before now and fail the first write of every exchange. All four
// places that arm a deadline are on this path: the client's request and
// send, the server's replies and (in the crawler's tests) the gateway's.
func TestDialTimeoutNotPositiveLiftsTheBound(t *testing.T) {
	for _, timeout := range []time.Duration{0, -time.Second} {
		n, _ := newTestServer(t)
		n.DialTimeout = timeout
		target := NewClient(n, hashOf(3), ep(20), "bbb_3")
		target.SetShared([]protocol.FileEntry{{Hash: hashOf(0xCC), Size: 7, Name: "x.mp3", Type: "audio"}})
		if err := target.GoOnline(); err != nil {
			t.Fatal(err)
		}
		sess, err := target.Connect(ep(0xFFFF0001))
		if err != nil {
			t.Fatalf("timeout %v: connect: %v", timeout, err)
		}
		if err := target.Publish(sess); err != nil {
			t.Fatalf("timeout %v: publish: %v", timeout, err)
		}
		if users, err := sess.SearchUsers("bbb"); err != nil || len(users) != 1 {
			t.Fatalf("timeout %v: user search = %v, %v", timeout, users, err)
		}
		sess.Close()
		files, err := NewClient(n, hashOf(4), ep(21), "crawler").Browse(ep(20))
		if err != nil || len(files) != 1 {
			t.Fatalf("timeout %v: browse = %v, %v", timeout, files, err)
		}
		target.GoOffline()
	}
}

// A dial is the pipe and nothing else: no closure over the handler and
// the connection to start its goroutine with, no timer. The yield lets
// the handler run and exit, so that the next dial's goroutine is a
// recycled one and not a new object of the runtime's.
func TestDialAllocatesOnlyThePipe(t *testing.T) {
	if testenv.Race() {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	n := NewNetwork()
	if err := n.Listen(ep(1), func(c net.Conn) { c.Close() }); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		c, err := n.Dial(ep(1))
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		runtime.Gosched()
	}); got > 1 {
		t.Errorf("Dial allocates %v objects, want 1", got)
	}
}
