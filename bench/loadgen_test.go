package main

import (
	"bytes"
	"io"
	"testing"

	"edonkey/internal/protocol"
)

// frame encodes one reply message.
func frame(t *testing.T, m protocol.Message) []byte {
	t.Helper()
	b, err := protocol.AppendMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// planOf is a plan whose requests expect the given reply opcodes.
func planOf(ops ...byte) connPlan {
	p := connPlan{replyOps: ops}
	for i := range ops {
		p.wire = append(p.wire, 0) // what is sent does not matter to a canned stream
		if (i+1)%loadDepth == 0 || i == len(ops)-1 {
			p.burstEnds = append(p.burstEnds, len(p.wire))
		}
	}
	return p
}

func TestFrameCounterCountsWholeFrames(t *testing.T) {
	a := frame(t, &protocol.IDChange{ClientID: 7})
	b := frame(t, &protocol.Reject{Reason: "a longer payload than the first frame"})
	fc := newFrameCounter(bytes.NewReader(append(append([]byte(nil), a...), b...)))
	for i, want := range []byte{protocol.OpIDChange, protocol.OpReject} {
		op, err := fc.next()
		if err != nil || op != want {
			t.Fatalf("frame %d: opcode %#x, err %v; want %#x", i, op, err, want)
		}
	}
	if fc.bytes != int64(len(a)+len(b)) {
		t.Errorf("counted %d bytes, stream has %d", fc.bytes, len(a)+len(b))
	}
	if _, err := fc.next(); err != io.EOF {
		t.Errorf("at a clean end: %v, want io.EOF", err)
	}
}

func TestFrameCounterSpansItsBuffer(t *testing.T) {
	// One frame several times the reader's buffer.
	big := frame(t, &protocol.Reject{Reason: string(make([]byte, 60000))})
	files := make([]protocol.FileEntry, 4000)
	huge := frame(t, &protocol.SearchResult{Files: files})
	fc := newFrameCounter(bytes.NewReader(append(append([]byte(nil), big...), huge...)))
	if op, err := fc.next(); err != nil || op != protocol.OpReject {
		t.Fatalf("first frame: %#x, %v", op, err)
	}
	if op, err := fc.next(); err != nil || op != protocol.OpSearchResult {
		t.Fatalf("second frame: %#x, %v", op, err)
	}
	if fc.bytes != int64(len(big)+len(huge)) {
		t.Errorf("counted %d bytes, want %d", fc.bytes, len(big)+len(huge))
	}
}

func TestDriveCountsEveryKindOfFailure(t *testing.T) {
	ok := frame(t, &protocol.IDChange{ClientID: 1})
	wrong := frame(t, &protocol.Reject{Reason: "no"})
	short := ok[:len(ok)-2]
	badMarker := append([]byte{0xC5}, ok[1:]...)
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	const op = protocol.OpIDChange

	cases := []struct {
		name    string
		stream  []byte
		failed  int
		wantErr error
	}{
		{"all well", cat(ok, ok, ok, ok), 0, nil},
		{"wrong opcode fails one op and the stream goes on", cat(ok, wrong, ok, ok), 1, nil},
		{"bad marker fails the rest of the stream", cat(ok, badMarker, ok, ok), 3, errBadMarker},
		{"short frame fails it and what follows", cat(ok, ok, short), 2, io.ErrUnexpectedEOF},
		{"missing replies are failed ops", cat(ok, ok), 2, io.EOF},
		{"wrong opcode then bad marker", cat(wrong, ok, badMarker), 3, errBadMarker},
	}
	for _, c := range cases {
		out := drive(io.Discard, newFrameCounter(bytes.NewReader(c.stream)), planOf(op, op, op, op))
		if out.failed != c.failed || out.err != c.wantErr {
			t.Errorf("%s: %d failed, err %v; want %d failed, err %v", c.name, out.failed, out.err, c.failed, c.wantErr)
		}
	}
}

func TestDriveSendsBurstsOfDepth(t *testing.T) {
	n := 2*loadDepth + 3
	ops := bytes.Repeat([]byte{protocol.OpIDChange}, n)
	stream := bytes.Repeat(frame(t, &protocol.IDChange{ClientID: 1}), n)
	var sent writeLog
	out := drive(&sent, newFrameCounter(bytes.NewReader(stream)), planOf(ops...))
	if out.failed != 0 || out.err != nil {
		t.Fatalf("failed %d, err %v", out.failed, out.err)
	}
	if want := []int{loadDepth, loadDepth, 3}; len(sent) != 3 || sent[0] != want[0] || sent[1] != want[1] || sent[2] != want[2] {
		t.Errorf("writes of %v bytes, want %v", []int(sent), want)
	}
	if len(out.bursts) != 3 {
		t.Errorf("%d burst latencies, want 3", len(out.bursts))
	}
}

// writeLog records the size of each write.
type writeLog []int

func (w *writeLog) Write(p []byte) (int, error) {
	*w = append(*w, len(p))
	return len(p), nil
}
