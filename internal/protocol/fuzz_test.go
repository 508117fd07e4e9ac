package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// fuzzSeeds is the seed corpus of both wire fuzz targets: one
// well-formed frame per message type, the hostile count frames, a
// header that lies about its size, a pipelined stream and plain junk.
func fuzzSeeds(f *testing.F) {
	hash := [16]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}
	ep := Endpoint{IP: 0x0A000001, Port: 4662}
	files := []FileEntry{
		{Hash: hash, Size: 1 << 30, Name: "movie.avi", Type: "video", Availability: 12},
		{Size: 42, Name: "song.mp3", Type: "audio"},
	}
	msgs := []Message{
		&LoginRequest{UserHash: hash, Endpoint: ep, Nickname: "abc_1", Version: 60},
		&Reject{Reason: "browsing disabled"},
		&GetServerList{},
		&ServerList{Servers: []Endpoint{ep, {IP: 7, Port: 9}}},
		&OfferFiles{Files: files},
		&SearchRequest{Keyword: "horizon"},
		&SearchResult{Files: files},
		&GetSources{Hash: hash},
		&FoundSources{Hash: hash, Sources: []Endpoint{ep}},
		&SearchUser{Query: "aaa"},
		&SearchUserResult{Users: []UserEntry{{Hash: hash, ClientID: 5, Endpoint: ep, Nickname: "aaa_12"}}},
		&ServerStatus{Users: 200000, Files: 11000000},
		&IDChange{ClientID: 0x02000007},
		&Hello{UserHash: hash, Endpoint: ep, Nickname: "xyz_9"},
		&HelloAnswer{UserHash: hash, Nickname: "xyz_9"},
		&AskSharedFiles{},
		&SharedFilesAnswer{Files: files},
	}
	var stream []byte
	for _, m := range msgs {
		raw, _ := AppendMessage(nil, m)
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		stream = append(stream, raw...)
	}
	f.Add(stream)
	for _, raw := range hostileFrames() {
		f.Add(raw)
	}
	lying := []byte{ProtoMarker, 0, 0, 0, 0, OpSharedFilesAnswer, 1, 2, 3}
	binary.LittleEndian.PutUint32(lying[1:], MaxMessageSize)
	f.Add(lying)
	f.Add([]byte{})
	f.Add([]byte{0x00, 1, 0, 0, 0, OpGetServerList})
	f.Add(bytes.Repeat([]byte{0xE3}, 40))
}

// FuzzReadMessage feeds the general decoder arbitrary streams: it must
// not panic, must not allocate more than a small multiple of what it
// was sent (plus the first read chunk a header can claim), and whatever
// it accepts must survive encode → decode unchanged, with the encoding
// a fixed point.
func FuzzReadMessage(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var m Message
		var err error
		limit := uint64(readChunk + 8*len(data) + 4<<10)
		if got := allocBytes(limit, func() { m, err = ReadMessage(bytes.NewReader(data)) }); got > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d)", len(data), got, limit)
		}
		if err != nil {
			return
		}
		enc, err := AppendMessage(nil, m)
		if err != nil {
			t.Fatalf("re-encode %T: %v", m, err)
		}
		again, err := ReadMessage(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("decode of re-encoded %T: %v", m, err)
		}
		if !reflect.DeepEqual(m, again) {
			t.Fatalf("%T changed across encode → decode:\n was %+v\n now %+v", m, m, again)
		}
		if enc2, _ := AppendMessage(nil, again); !bytes.Equal(enc, enc2) {
			t.Fatalf("%T: encoding is not a fixed point", m)
		}
	})
}

// FuzzRequestDecoder feeds the server-role decoder arbitrary streams.
// It must not panic and must allocate next to nothing however long the
// stream; every frame it accepts must be one the general decoder reads
// to the same message (a publication comes back empty: it is skipped),
// and must survive encode → decode through the role decoder.
func FuzzRequestDecoder(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		br := bufio.NewReaderSize(src, 4096)
		var dec, redec RequestDecoder
		if got := allocBytes(1<<10, func() {
			src.Reset(data)
			br.Reset(src)
			for {
				if _, err := dec.Read(br); err != nil {
					return
				}
			}
		}); got > 1<<10 {
			t.Fatalf("reading a %d-byte stream allocated %d bytes", len(data), got)
		}
		src.Reset(data)
		br.Reset(src)
		for start := 0; ; {
			m, err := dec.Read(br)
			if err != nil {
				return
			}
			end := len(data) - src.Len() - br.Buffered()
			raw := data[start:end]
			start = end
			if _, offer := m.(*OfferFiles); offer {
				continue // skipped, not decoded: nothing to compare
			}
			want, err := ReadMessage(bytes.NewReader(raw))
			if err != nil {
				t.Fatalf("role decoder accepted a %T the general decoder refuses: %v", m, err)
			}
			if !reflect.DeepEqual(m, want) {
				t.Fatalf("role decoder read %+v, general decoder %+v", m, want)
			}
			enc, _ := AppendMessage(nil, m)
			again, err := redec.Read(bufio.NewReader(bytes.NewReader(enc)))
			if err != nil || !reflect.DeepEqual(again, want) {
				t.Fatalf("%T did not survive encode → decode: %+v, %v", m, again, err)
			}
		}
	})
}
