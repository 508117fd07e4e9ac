// Package protocol implements an eDonkey-style binary wire protocol: the
// 0xE3-framed messages, the tag system, and the client-server and
// client-client message types the paper's measurement methodology relies
// on — login, shared-file publication, user search by nickname (the
// crawler's discovery primitive), source queries, keyword search, and
// cache browsing (the crawler's collection primitive).
//
// The encoding follows the shape of the original protocol (little-endian
// integers, tagged metadata lists, one opcode byte per message) without
// claiming bit-compatibility with any historical client; the reproduction
// only requires that both ends speak the same language and that the
// measurement artefacts (reply caps, reject semantics) live at the
// protocol layer, where the paper's did.
package protocol

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"unsafe"
)

// ProtoMarker starts every frame, as in eDonkey.
const ProtoMarker = 0xE3

// MaxMessageSize bounds a frame's payload to keep a malicious or broken
// peer from forcing huge allocations.
const MaxMessageSize = 1 << 24

// Message opcodes. Client-server and client-client share the opcode space
// the way the original protocol's TCP messages did.
const (
	OpLoginRequest      = 0x01
	OpReject            = 0x05
	OpGetServerList     = 0x14
	OpOfferFiles        = 0x15
	OpSearchRequest     = 0x16
	OpGetSources        = 0x19
	OpSearchUser        = 0x1A
	OpServerList        = 0x32
	OpSearchResult      = 0x33
	OpServerStatus      = 0x34
	OpSearchUserResult  = 0x43
	OpIDChange          = 0x40
	OpFoundSources      = 0x42
	OpAskSharedFiles    = 0x4A
	OpSharedFilesAnswer = 0x4B
	OpHello             = 0x4C
	OpHelloAnswer       = 0x4D
)

// Common tag names (eDonkey special tags).
const (
	TagName         = 0x01
	TagSize         = 0x02
	TagType         = 0x03
	TagFormat       = 0x04
	TagVersion      = 0x11
	TagPort         = 0x0F
	TagNickname     = 0x01 // same id in a user context
	TagAvailability = 0x15
)

// Tag value kinds.
const (
	tagKindString = 0x02
	tagKindUint32 = 0x03
)

// Errors returned by the codec.
var (
	ErrBadMarker  = errors.New("protocol: bad frame marker")
	ErrTooLarge   = errors.New("protocol: frame exceeds maximum size")
	ErrTruncated  = errors.New("protocol: truncated message")
	ErrUnknownOp  = errors.New("protocol: unknown opcode")
	errBadTagKind = errors.New("protocol: unknown tag kind")
	errStringSize = errors.New("protocol: unreasonable string length")
)

// Tag is one piece of typed, named metadata.
type Tag struct {
	Name     byte
	IsString bool
	Str      string
	Num      uint32
}

// StringTag builds a string-valued tag.
func StringTag(name byte, v string) Tag { return Tag{Name: name, IsString: true, Str: v} }

// Uint32Tag builds an integer-valued tag.
func Uint32Tag(name byte, v uint32) Tag { return Tag{Name: name, Num: v} }

func appendTag(dst []byte, t Tag) []byte {
	if t.IsString {
		dst = append(dst, tagKindString, t.Name)
		return appendString(dst, t.Str)
	}
	dst = append(dst, tagKindUint32, t.Name)
	return binary.LittleEndian.AppendUint32(dst, t.Num)
}

// tagView is one tag read in place: a string value aliases the frame.
type tagView struct {
	name     byte
	isString bool
	str      []byte
	num      uint32
}

// minTagSize is the shortest encoded tag: kind, name and an empty string.
const minTagSize = 4

func (r *reader) tag() (t tagView, err error) {
	kind, err := r.byte()
	if err != nil {
		return t, err
	}
	if t.name, err = r.byte(); err != nil {
		return t, err
	}
	switch kind {
	case tagKindString:
		t.isString = true
		t.str, err = r.bytes16()
	case tagKindUint32:
		t.num, err = r.uint32()
	default:
		err = errBadTagKind
	}
	return t, err
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// reader wraps a payload with bounds-checked primitives.
type reader struct {
	buf []byte
	off int
	// alias makes string() return views of buf instead of copies: the
	// request decoder's mode, whose messages live only until its next
	// read.
	alias bool
}

func (r *reader) byte() (byte, error) {
	if r.off >= len(r.buf) {
		return 0, ErrTruncated
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

func (r *reader) uint16() (uint16, error) {
	if r.off+2 > len(r.buf) {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, nil
}

func (r *reader) uint32() (uint32, error) {
	if r.off+4 > len(r.buf) {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

func (r *reader) uint64() (uint64, error) {
	if r.off+8 > len(r.buf) {
		return 0, ErrTruncated
	}
	v := binary.LittleEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

func (r *reader) hash() ([16]byte, error) {
	var h [16]byte
	if r.off+16 > len(r.buf) {
		return h, ErrTruncated
	}
	copy(h[:], r.buf[r.off:])
	r.off += 16
	return h, nil
}

// bytes16 returns a length-prefixed string as a view of the payload.
func (r *reader) bytes16() ([]byte, error) {
	n, err := r.uint16()
	if err != nil {
		return nil, err
	}
	if int(n) > len(r.buf)-r.off {
		return nil, errStringSize
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// str turns a view of the payload into a string: a copy, or in alias
// mode the view itself.
func (r *reader) str(b []byte) string {
	if r.alias {
		return unsafe.String(unsafe.SliceData(b), len(b))
	}
	return string(b)
}

func (r *reader) string() (string, error) {
	b, err := r.bytes16()
	return r.str(b), err
}

// count reads an element count and checks it against what the rest of
// the payload could hold at minSize bytes an element, so a count that
// lies cannot make a decoder reserve more than the frame it arrived in.
func (r *reader) count(minSize int) (int, error) {
	n, err := r.uint32()
	if err != nil {
		return 0, err
	}
	if int64(n) > int64((len(r.buf)-r.off)/minSize) {
		return 0, ErrTruncated
	}
	return int(n), nil
}

func (r *reader) done() error {
	if r.off != len(r.buf) {
		return fmt.Errorf("protocol: %d trailing bytes", len(r.buf)-r.off)
	}
	return nil
}

// Message is any frame body that knows its opcode and payload encoding.
type Message interface {
	Opcode() byte
	// appendPayload appends the encoded payload (without the frame
	// header or opcode) to dst and returns the extended slice. Append
	// style lets callers frame straight into reused buffers; WriteMessage
	// and AppendMessage are the public entry points.
	appendPayload(dst []byte) []byte
}

// frameHeaderSize is the marker byte plus the little-endian payload size.
const frameHeaderSize = 5

// AppendMessage appends the complete frame (marker, size, opcode,
// payload) for m to dst and returns the extended slice. On ErrTooLarge
// dst is returned unchanged. The bytes are identical to what
// WriteMessage puts on the wire.
func AppendMessage(dst []byte, m Message) ([]byte, error) {
	start := len(dst)
	dst = append(dst, ProtoMarker, 0, 0, 0, 0, m.Opcode())
	dst = m.appendPayload(dst)
	size := len(dst) - start - frameHeaderSize
	if size > MaxMessageSize {
		return dst[:start], ErrTooLarge
	}
	binary.LittleEndian.PutUint32(dst[start+1:], uint32(size))
	return dst, nil
}

// framePool recycles encode buffers across WriteMessage calls: the
// serving hot path frames thousands of small replies per second and
// must not allocate a fresh buffer for each. It holds pointers: a slice
// header put into an interface is itself an allocation.
var framePool = sync.Pool{New: func() any {
	buf := make([]byte, 0, 512)
	return &buf
}}

// WriteMessage frames and writes one message.
func WriteMessage(w io.Writer, m Message) error {
	buf := framePool.Get().(*[]byte)
	defer framePool.Put(buf)
	frame, err := AppendMessage((*buf)[:0], m)
	if err != nil {
		return err
	}
	*buf = frame[:0] // keep what the frame grew to
	_, err = w.Write(frame)
	return err
}

// ReadMessage reads and decodes one frame.
func ReadMessage(r io.Reader) (Message, error) {
	m, _, err := ReadMessageInto(r, nil)
	return m, err
}

// ReadMessageInto reads and decodes one frame using scratch as the
// reusable body buffer, returning the (possibly grown) scratch for the
// next call. Decoded messages never alias the scratch — strings and
// hashes are copied by the decoders — so one buffer per connection
// serves the whole session without a per-frame allocation.
func ReadMessageInto(r io.Reader, scratch []byte) (Message, []byte, error) {
	op, payload, scratch, err := ReadFrame(r, scratch)
	if err != nil {
		return nil, scratch, err
	}
	m, err := Decode(op, payload)
	return m, scratch, err
}

// readChunk is how much of a frame's declared size is reserved before
// any of its body has arrived; past it the buffer grows only as fast as
// the peer actually sends, so a header that lies about its size costs
// the receiver a chunk, not MaxMessageSize.
const readChunk = 64 << 10

// ReadFrame reads one frame without decoding it and returns its opcode
// and payload. The payload aliases the returned scratch, which is the
// buffer to pass to the next call: the header is read into it too, so a
// connection that keeps its scratch reads frames without allocating.
func ReadFrame(r io.Reader, scratch []byte) (op byte, payload, grown []byte, err error) {
	if cap(scratch) < frameHeaderSize {
		scratch = make([]byte, 0, 64)
	}
	hdr := scratch[:frameHeaderSize]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, scratch, err
	}
	if hdr[0] != ProtoMarker {
		return 0, nil, scratch, ErrBadMarker
	}
	size := int(binary.LittleEndian.Uint32(hdr[1:]))
	if size == 0 {
		return 0, nil, scratch, ErrTruncated
	}
	if size > MaxMessageSize {
		return 0, nil, scratch, ErrTooLarge
	}
	body := scratch[:0]
	if first := min(size, readChunk); cap(body) < first {
		body = make([]byte, 0, first)
	}
	for {
		n := min(size, cap(body))
		if _, err := io.ReadFull(r, body[len(body):n]); err != nil {
			return 0, nil, body, err
		}
		body = body[:n]
		if n == size {
			return body[0], body[1:], body, nil
		}
		body = slices.Grow(body, min(size-n, n))
	}
}

// Decode decodes the payload of a frame with the given opcode. The
// message owns its memory: nothing in it aliases payload.
func Decode(op byte, payload []byte) (Message, error) {
	r := reader{buf: payload}
	m, err := decodeAny(op, &r)
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// decodeAny dispatches on the opcode with direct calls, so the reader
// stays on the caller's stack.
func decodeAny(op byte, r *reader) (Message, error) {
	switch op {
	case OpLoginRequest:
		m := new(LoginRequest)
		return m, m.decode(r)
	case OpReject:
		m := new(Reject)
		return m, m.decode(r)
	case OpGetServerList:
		return &GetServerList{}, nil
	case OpOfferFiles:
		m := new(OfferFiles)
		return m, m.decode(r)
	case OpSearchRequest:
		m := new(SearchRequest)
		return m, m.decode(r)
	case OpGetSources:
		m := new(GetSources)
		return m, m.decode(r)
	case OpSearchUser:
		m := new(SearchUser)
		return m, m.decode(r)
	case OpServerList:
		m := new(ServerList)
		return m, m.decode(r)
	case OpSearchResult:
		m := new(SearchResult)
		return m, m.decode(r)
	case OpServerStatus:
		m := new(ServerStatus)
		return m, m.decode(r)
	case OpSearchUserResult:
		m := new(SearchUserResult)
		return m, m.decode(r)
	case OpIDChange:
		m := new(IDChange)
		return m, m.decode(r)
	case OpFoundSources:
		m := new(FoundSources)
		return m, m.decode(r)
	case OpAskSharedFiles:
		return &AskSharedFiles{}, nil
	case OpSharedFilesAnswer:
		m := new(SharedFilesAnswer)
		return m, m.decode(r)
	case OpHello:
		m := new(Hello)
		return m, m.decode(r)
	case OpHelloAnswer:
		m := new(HelloAnswer)
		return m, m.decode(r)
	}
	return nil, fmt.Errorf("%w: 0x%02X", ErrUnknownOp, op)
}
