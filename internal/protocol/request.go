package protocol

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ErrNotRequest is returned by a RequestDecoder for a well-known opcode
// that only ever travels towards a client: a server has no business
// decoding a SearchResult or a SharedFilesAnswer from whoever connects.
var ErrNotRequest = errors.New("protocol: opcode is not a request")

// Payload caps of the server role. A query is a hash or one short
// string and a login or handshake a hash, an endpoint and a nickname,
// so anything longer is refused before it is buffered.
const (
	maxQueryPayload = 2 + 256
	maxLoginPayload = 512
)

// RequestDecoder reads the frames a server accepts, for one connection:
// the requests of the two tiers (login, publication, the three queries,
// the server list; hello and browse, which a first-tier server answers
// with a Reject) and nothing else. Each opcode has a payload cap, and
// the decoder's memory is this struct: bodies are copied into a fixed
// scratch, messages decode into reused structs whose strings alias it,
// and a publication, which no server here reads, is skipped in the
// stream without being buffered. A steady-state Read allocates nothing.
//
// The returned message is valid until the next Read.
type RequestDecoder struct {
	login   LoginRequest
	search  SearchRequest
	user    SearchUser
	sources GetSources
	hello   Hello
	offer   OfferFiles // always empty
	scratch [maxLoginPayload]byte
}

// requestCap returns the largest payload the server role accepts for
// the opcode.
func requestCap(op byte) (int, error) {
	switch op {
	case OpGetServerList, OpAskSharedFiles:
		return 0, nil
	case OpGetSources:
		return 16, nil
	case OpSearchRequest, OpSearchUser:
		return maxQueryPayload, nil
	case OpLoginRequest, OpHello:
		return maxLoginPayload, nil
	case OpOfferFiles:
		return MaxMessageSize, nil
	case OpReject, OpServerList, OpSearchResult, OpServerStatus, OpSearchUserResult,
		OpIDChange, OpFoundSources, OpSharedFilesAnswer, OpHelloAnswer:
		return 0, fmt.Errorf("%w: 0x%02X", ErrNotRequest, op)
	}
	return 0, fmt.Errorf("%w: 0x%02X", ErrUnknownOp, op)
}

// Read reads and decodes the next request from br. At a clean end of
// stream it returns io.EOF; a stream that ends inside a frame gives
// io.ErrUnexpectedEOF.
func (d *RequestDecoder) Read(br *bufio.Reader) (Message, error) {
	hdr, err := br.Peek(frameHeaderSize)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if hdr[0] != ProtoMarker {
		return nil, ErrBadMarker
	}
	size := int(binary.LittleEndian.Uint32(hdr[1:]))
	if size == 0 {
		return nil, ErrTruncated
	}
	if size > MaxMessageSize {
		return nil, ErrTooLarge
	}
	hdr, err = br.Peek(frameHeaderSize + 1)
	if err != nil {
		return nil, unexpectedEOF(err)
	}
	op := hdr[frameHeaderSize]
	limit, err := requestCap(op)
	if err != nil {
		return nil, err
	}
	size-- // the opcode
	if size > limit {
		return nil, ErrTooLarge
	}
	// Discard of bytes just peeked cannot fail.
	_, _ = br.Discard(frameHeaderSize + 1)
	if op == OpOfferFiles {
		if _, err := br.Discard(size); err != nil {
			return nil, unexpectedEOF(err)
		}
		return &d.offer, nil
	}
	body := d.scratch[:size]
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, unexpectedEOF(err)
	}
	r := reader{buf: body, alias: true}
	var m Message
	switch op {
	case OpGetServerList:
		m = &GetServerList{}
	case OpAskSharedFiles:
		m = &AskSharedFiles{}
	case OpGetSources:
		m, err = &d.sources, d.sources.decode(&r)
	case OpSearchRequest:
		m, err = &d.search, d.search.decode(&r)
	case OpSearchUser:
		m, err = &d.user, d.user.decode(&r)
	case OpLoginRequest:
		m, err = &d.login, d.login.decode(&r)
	case OpHello:
		m, err = &d.hello, d.hello.decode(&r)
	}
	if err != nil {
		return nil, err
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}
