package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
	"time"
)

func TestMarkProtocolRoundTrip(t *testing.T) {
	var pipe bytes.Buffer
	m := newMarker(&pipe)
	if err := m.mark(m.take("start")); err != nil {
		t.Fatal(err)
	}
	ready := m.take("ready")
	ready.Addr = "127.0.0.1:4661"
	if err := m.mark(ready); err != nil {
		t.Fatal(err)
	}
	garbage = make([][]byte, 100) // allocate between two readings
	for i := range garbage {
		garbage[i] = make([]byte, 1024)
	}
	seg := m.take("day00")
	seg.Ops, seg.Failed, seg.Digest = 7, 1, "abc"
	if err := m.mark(seg); err != nil {
		t.Fatal(err)
	}

	mr := newMarkReader(&pipe)
	if _, err := mr.expect("start"); err != nil {
		t.Fatal(err)
	}
	prev, err := mr.expect("ready")
	if err != nil {
		t.Fatal(err)
	}
	if prev.Addr != "127.0.0.1:4661" {
		t.Errorf("ready line lost its address: %+v", prev)
	}
	cur, err := mr.next()
	if err != nil {
		t.Fatal(err)
	}
	s := between(prev, cur)
	if s.Name != "day00" || s.Ops != 7 || s.Failed != 1 || s.Digest != "abc" {
		t.Errorf("segment = %+v", s)
	}
	if s.Wall <= 0 || s.Mallocs < 100 || s.AllocBytes < 100*1024 {
		t.Errorf("segment deltas do not cover the work between the readings: %+v", s)
	}
	if cur.PeakRSSKB < prev.PeakRSSKB || prev.PeakRSSKB <= 0 {
		t.Errorf("peak resident set went from %d to %d kB; VmHWM is positive and never falls", prev.PeakRSSKB, cur.PeakRSSKB)
	}
	if _, err := mr.next(); err != io.EOF {
		t.Errorf("after the last line: %v, want io.EOF", err)
	}
}

var garbage [][]byte

func TestMarkReaderRejectsForeignLines(t *testing.T) {
	for _, in := range []string{"progress: day 1/8\n", "{}\n", `{"name":"ready"}` + "\n"} {
		if _, err := newMarkReader(strings.NewReader(in)).expect("start"); err == nil {
			t.Errorf("line %q accepted as the start mark", in)
		}
	}
	if _, err := newMarkReader(strings.NewReader("")).expect("ready"); err == nil {
		t.Error("a child that exits before it is ready: no error")
	}
}

func TestBetweenIsADifference(t *testing.T) {
	a := reading{Name: "ready", WallNS: 100, CPUNS: 40, Mallocs: 5, AllocBytes: 50, NumGC: 1, SysReads: 3, SysWrites: 2}
	b := reading{Name: "seg01", WallNS: 350, CPUNS: 90, Mallocs: 12, AllocBytes: 80, NumGC: 2, SysReads: 10, SysWrites: 4, Ops: 16}
	got := between(a, b)
	want := segment{Name: "seg01", Wall: 250 * time.Nanosecond, CPU: 50 * time.Nanosecond,
		Mallocs: 7, AllocBytes: 30, NumGC: 1, SysReads: 7, SysWrites: 2, Ops: 16}
	if got != want {
		t.Errorf("between = %+v, want %+v", got, want)
	}
}
