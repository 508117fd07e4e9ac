package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"sync"
	"syscall"
	"time"

	"edonkey/internal/protocol"
)

// The load generator: closed loop, loadConns connections, one goroutine
// each, bursts of loadDepth pre-encoded requests. Replies are counted by
// frame header and checksummed, never decoded, so the generator costs
// the shared processors as little as it can.

var (
	errBadMarker = errors.New("reply frame: bad marker")
	errBadSize   = errors.New("reply frame: size out of range")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// frameCounter walks a reply stream frame by frame.
type frameCounter struct {
	br    *bufio.Reader
	crc   uint32 // of every byte of every whole frame so far
	bytes int64
}

func newFrameCounter(r io.Reader) *frameCounter {
	return &frameCounter{br: bufio.NewReaderSize(r, 64<<10)}
}

// next consumes one frame and returns its opcode. A stream that ends
// inside a frame gives io.ErrUnexpectedEOF; after any error the stream
// cannot be trusted to be at a frame boundary again.
func (fc *frameCounter) next() (opcode byte, err error) {
	hdr, err := fc.br.Peek(6) // marker, payload size, opcode
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	if hdr[0] != protocol.ProtoMarker {
		return 0, errBadMarker
	}
	size := binary.LittleEndian.Uint32(hdr[1:5])
	if size == 0 || size > protocol.MaxMessageSize {
		return 0, errBadSize
	}
	opcode = hdr[5]
	for left := 5 + int(size); left > 0; {
		chunk, err := fc.br.Peek(min(left, fc.br.Size()))
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
		fc.crc = crc32.Update(fc.crc, castagnoli, chunk)
		fc.bytes += int64(len(chunk))
		left -= len(chunk)
		// Discard of bytes just peeked cannot fail.
		_, _ = fc.br.Discard(len(chunk))
	}
	return opcode, nil
}

// connOutcome is what one connection saw during one segment.
type connOutcome struct {
	failed int
	bursts []time.Duration // write of a burst to its last reply
	err    error           // what ended the stream early, if anything
}

// drive sends the plan's bursts, each after the last reply to the one
// before, and counts the replies. A reply with the wrong opcode is one
// failed op; a broken stream fails every request not yet answered.
func drive(conn io.Writer, fc *frameCounter, p connPlan) connOutcome {
	out := connOutcome{bursts: make([]time.Duration, 0, len(p.burstEnds))}
	sent, answered := 0, 0
	for _, end := range p.burstEnds {
		t0 := time.Now()
		if _, out.err = conn.Write(p.wire[sent:end]); out.err != nil {
			break
		}
		sent = end
		burst := min(loadDepth, len(p.replyOps)-answered)
		for i := 0; i < burst; i++ {
			var op byte
			if op, out.err = fc.next(); out.err != nil {
				break
			}
			if op != p.replyOps[answered] {
				out.failed++
			}
			answered++
		}
		if out.err != nil {
			break
		}
		out.bursts = append(out.bursts, time.Since(t0))
	}
	out.failed += len(p.replyOps) - answered
	return out
}

// loadClient is the fleet of connections to one server.
type loadClient struct {
	conns    []net.Conn
	counters []*frameCounter
}

func dialFleet(addr string) (*loadClient, error) {
	lc := &loadClient{}
	for i := 0; i < loadConns; i++ {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			lc.close()
			return nil, err
		}
		lc.conns = append(lc.conns, conn)
		lc.counters = append(lc.counters, newFrameCounter(conn))
	}
	return lc, nil
}

func (lc *loadClient) close() {
	for _, c := range lc.conns {
		c.Close()
	}
}

// segmentOutcome is the load generator's own account of a segment.
type segmentOutcome struct {
	wall       time.Duration
	clientCPU  time.Duration
	ops        int
	failed     int
	digest     string // per connection: crc of the reply stream and its length
	replyBytes int64
	bursts     []time.Duration
}

// runSegment plays one planned segment against the server and waits for
// every reply.
func (lc *loadClient) runSegment(plans []connPlan) (segmentOutcome, error) {
	outs := make([]connOutcome, len(plans))
	bytesBefore := make([]int64, len(plans))
	for c, fc := range lc.counters {
		fc.crc = 0
		bytesBefore[c] = fc.bytes
		// A server that stops answering must not hang the benchmark.
		if err := lc.conns[c].SetDeadline(time.Now().Add(60 * time.Second)); err != nil {
			return segmentOutcome{}, err
		}
	}
	cpu0 := selfCPU()
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := range plans {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs[c] = drive(lc.conns[c], lc.counters[c], plans[c])
		}()
	}
	wg.Wait()
	res := segmentOutcome{wall: time.Since(t0), clientCPU: selfCPU() - cpu0}
	var digest []string
	var firstErr error
	for c, o := range outs {
		res.ops += len(plans[c].replyOps)
		res.failed += o.failed
		res.bursts = append(res.bursts, o.bursts...)
		n := lc.counters[c].bytes - bytesBefore[c]
		res.replyBytes += n
		digest = append(digest, streamDigest(lc.counters[c].crc, n))
		if o.err != nil && firstErr == nil {
			firstErr = fmt.Errorf("connection %d: %w", c, o.err)
		}
	}
	res.digest = strings.Join(digest, ",")
	return res, firstErr
}

// streamDigest names one connection's reply stream over a segment: its
// checksum and its length.
func streamDigest(crc uint32, n int64) string { return fmt.Sprintf("%08x/%d", crc, n) }

// selfCPU is this process's user plus system time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only on a bad argument
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
