package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The parent–child mark protocol. The system under test runs in a child
// process and writes one JSON line to its standard output at every
// boundary it crosses: "start" when main begins, "ready" when its own
// set-up is done, then one line at the end of each timed segment. A line
// carries cumulative readings of the child's own clocks and counters;
// the parent attributes to a segment the difference between the line
// that ends it and the line before. For the serve workloads the segment
// boundaries are the parent's to decide, so the server child takes a
// reading whenever the parent writes "mark\n" to its standard input.

// reading is one line of the protocol.
type reading struct {
	Name string `json:"name"`

	// Cumulative since process start.
	WallNS     int64  `json:"wall_ns"`     // monotonic clock
	CPUNS      int64  `json:"cpu_ns"`      // getrusage(RUSAGE_SELF) user+system
	Mallocs    uint64 `json:"mallocs"`     // runtime.MemStats.Mallocs
	AllocBytes uint64 `json:"alloc_bytes"` // runtime.MemStats.TotalAlloc
	NumGC      uint32 `json:"num_gc"`
	SysReads   int64  `json:"syscr"` // /proc/self/io, 0 where unreadable
	SysWrites  int64  `json:"syscw"`
	// PeakRSSKB is VmHWM of /proc/self/status: this process image's own
	// high-water mark. ru_maxrss would not do: across exec it keeps the
	// high-water mark of the forking parent, so a small child would
	// report the harness's memory as its own.
	PeakRSSKB int64 `json:"vm_hwm_kb"`

	// What the segment this line ends did.
	Ops    int    `json:"ops,omitempty"`
	Failed int    `json:"failed,omitempty"`
	Digest string `json:"digest,omitempty"`

	// Addr is the listening address, on a server child's "ready" line.
	Addr string `json:"addr,omitempty"`
}

// marker writes readings for the process it lives in.
type marker struct {
	w     io.Writer
	start time.Time
}

func newMarker(w io.Writer) *marker { return &marker{w: w, start: time.Now()} }

// take reads the process's clocks and counters.
func (m *marker) take(name string) reading {
	var ru syscall.Rusage
	// Getrusage fails only on a bad argument; the zero value is the
	// honest reading if it somehow does.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r := reading{
		Name:       name,
		WallNS:     int64(time.Since(m.start)),
		CPUNS:      ru.Utime.Nano() + ru.Stime.Nano(),
		Mallocs:    ms.Mallocs,
		AllocBytes: ms.TotalAlloc,
		NumGC:      ms.NumGC,
	}
	r.SysReads, r.SysWrites = procIO()
	r.PeakRSSKB = procPeakRSS()
	return r
}

// mark takes a reading and writes it.
func (m *marker) mark(r reading) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = m.w.Write(append(line, '\n'))
	return err
}

// procIO returns the read and write system-call counts of this process.
func procIO() (reads, writes int64) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		key, val, ok := strings.Cut(line, ": ")
		if !ok {
			continue
		}
		n, _ := strconv.ParseInt(val, 10, 64)
		switch key {
		case "syscr":
			reads = n
		case "syscw":
			writes = n
		}
	}
	return reads, writes
}

// procPeakRSS returns this process's peak resident set in kilobytes, 0
// where /proc is unreadable.
func procPeakRSS() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if val, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			n, _ := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(val), " kB"), 10, 64)
			return n
		}
	}
	return 0
}

// markReader parses a child's line stream.
type markReader struct{ sc *bufio.Scanner }

func newMarkReader(r io.Reader) *markReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), 1<<20)
	return &markReader{sc: sc}
}

// next returns the next reading, or io.EOF when the child closed its
// output. A line that is not a reading is a protocol error: the child
// prints nothing else on this stream.
func (mr *markReader) next() (reading, error) {
	if !mr.sc.Scan() {
		if err := mr.sc.Err(); err != nil {
			return reading{}, err
		}
		return reading{}, io.EOF
	}
	var r reading
	if err := json.Unmarshal(mr.sc.Bytes(), &r); err != nil {
		return reading{}, fmt.Errorf("mark protocol: bad line %q: %w", mr.sc.Text(), err)
	}
	if r.Name == "" {
		return reading{}, fmt.Errorf("mark protocol: unnamed line %q", mr.sc.Text())
	}
	return r, nil
}

// expect returns the next reading and checks its name.
func (mr *markReader) expect(name string) (reading, error) {
	r, err := mr.next()
	if err != nil {
		return r, fmt.Errorf("mark protocol: waiting for %q: %w", name, err)
	}
	if r.Name != name {
		return r, fmt.Errorf("mark protocol: got %q, want %q", r.Name, name)
	}
	return r, nil
}

// segment is the cost of one timed piece of work: the difference between
// two readings, plus what the work reported about itself.
type segment struct {
	Name       string
	Wall       time.Duration
	CPU        time.Duration
	Mallocs    uint64
	AllocBytes uint64
	NumGC      uint32
	SysReads   int64
	SysWrites  int64
	Ops        int
	Failed     int
	Digest     string
}

// between attributes to the segment ended by cur everything that
// happened since prev.
func between(prev, cur reading) segment {
	return segment{
		Name:       cur.Name,
		Wall:       time.Duration(cur.WallNS - prev.WallNS),
		CPU:        time.Duration(cur.CPUNS - prev.CPUNS),
		Mallocs:    cur.Mallocs - prev.Mallocs,
		AllocBytes: cur.AllocBytes - prev.AllocBytes,
		NumGC:      cur.NumGC - prev.NumGC,
		SysReads:   cur.SysReads - prev.SysReads,
		SysWrites:  cur.SysWrites - prev.SysWrites,
		Ops:        cur.Ops,
		Failed:     cur.Failed,
		Digest:     cur.Digest,
	}
}
