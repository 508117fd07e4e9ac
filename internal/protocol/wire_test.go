package protocol

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"edonkey/internal/testenv"
)

// allocBytes returns the heap bytes f allocates. The reading is of the
// whole process, and other goroutines (the test runner's, a fuzz
// worker's) allocate too, so one above limit is taken again, up to a few
// times, and the smallest counts: f must be repeatable.
func allocBytes(limit uint64, f func()) uint64 {
	got := uint64(1<<64 - 1)
	for try := 0; got > limit && try < 5; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		got = min(got, after.TotalAlloc-before.TotalAlloc)
	}
	return got
}

// frame builds a raw frame around payload with an honest size field.
func frame(op byte, payload []byte) []byte {
	out := []byte{ProtoMarker, 0, 0, 0, 0, op}
	binary.LittleEndian.PutUint32(out[1:], uint32(1+len(payload)))
	return append(out, payload...)
}

func le32(v uint32) []byte { return binary.LittleEndian.AppendUint32(nil, v) }

// hostileFrames are complete frames of at most 64 bytes whose element
// counts claim far more than the frame holds.
func hostileFrames() map[string][]byte {
	pad := func(n int) []byte { return make([]byte, n) }
	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	huge := le32(2_800_000)
	return map[string][]byte{
		"login tags":         frame(OpLoginRequest, join(pad(16+6), huge, pad(5))),
		"offer entries":      frame(OpOfferFiles, huge),
		"offer entry tags":   frame(OpOfferFiles, join(le32(1), pad(16+8), huge, pad(4))),
		"search entries":     frame(OpSearchResult, join(huge, pad(30))),
		"browse entries":     frame(OpSharedFilesAnswer, join(le32(1<<31), pad(28))),
		"server list":        frame(OpServerList, join(huge, pad(12))),
		"found sources":      frame(OpFoundSources, join(pad(16), huge, pad(6))),
		"user search result": frame(OpSearchUserResult, join(huge, pad(28))),
	}
}

// No frame of 64 bytes or less may make a decoder reserve memory for the
// count it claims: the amplification the count checks exist to stop.
func TestHostileCountsAllocateLittle(t *testing.T) {
	const limit = 4 << 10
	for name, raw := range hostileFrames() {
		if len(raw) > 64 {
			t.Fatalf("%s: test frame is %d bytes", name, len(raw))
		}
		var err error
		if got := allocBytes(limit, func() { _, err = ReadMessage(bytes.NewReader(raw)) }); got > limit {
			t.Errorf("%s: ReadMessage allocated %d bytes for a %d-byte frame", name, got, len(raw))
		}
		if err == nil {
			t.Errorf("%s: ReadMessage accepted the frame", name)
		}
		var dec RequestDecoder
		br := bufio.NewReaderSize(nil, 4096)
		if got := allocBytes(limit, func() {
			br.Reset(bytes.NewReader(raw))
			_, err = dec.Read(br)
		}); got > limit {
			t.Errorf("%s: RequestDecoder allocated %d bytes for a %d-byte frame", name, got, len(raw))
		}
		// The publications are the one frame the server role takes
		// without reading.
		if err == nil && raw[5] != OpOfferFiles {
			t.Errorf("%s: RequestDecoder accepted the frame", name)
		}
	}
}

// A header that claims MaxMessageSize and then stops costs the reader a
// chunk, not the claim.
func TestLyingHeaderAllocatesAChunk(t *testing.T) {
	raw := []byte{ProtoMarker, 0, 0, 0, 0, OpSharedFilesAnswer, 1, 2, 3}
	binary.LittleEndian.PutUint32(raw[1:], MaxMessageSize)
	var err error
	const limit = readChunk + 4<<10
	for name, read := range map[string]func(){
		"ReadMessage": func() { _, err = ReadMessage(bytes.NewReader(raw)) },
		"AppendFrame": func() { _, _, err = AppendFrame(bytes.NewReader(raw), nil) },
	} {
		got := allocBytes(limit, read)
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%s: err = %v, want io.ErrUnexpectedEOF", name, err)
		}
		if got > limit {
			t.Fatalf("%s: a 9-byte stream claiming %d bytes cost %d", name, MaxMessageSize, got)
		}
	}
}

// A frame longer than the first chunk still arrives whole.
func TestReadFrameBeyondChunk(t *testing.T) {
	files := make([]FileEntry, 3000)
	for i := range files {
		files[i] = FileEntry{Size: uint64(i), Name: "some_longer_file_name.avi", Type: "video"}
	}
	want := &SharedFilesAnswer{Files: files}
	raw, err := AppendMessage(nil, want)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 3*readChunk {
		t.Fatalf("frame is only %d bytes", len(raw))
	}
	// One byte at a time, so every growth step sees a short read.
	got, err := ReadMessage(iotest1(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("large frame did not round trip")
	}
}

// iotest1 returns a reader that delivers raw in small pieces.
func iotest1(raw []byte) io.Reader { return &trickle{raw: raw} }

type trickle struct{ raw []byte }

func (t *trickle) Read(p []byte) (int, error) {
	if len(t.raw) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), 4093)], t.raw)
	t.raw = t.raw[n:]
	return n, nil
}

// refFileEntries is the decoder the walker replaced, kept as the oracle:
// it materializes a tag slice per entry and a FileEntry per element.
func refFileEntries(list []byte) ([]FileEntry, error) {
	r := &reader{buf: list}
	n, err := r.uint32()
	if err != nil {
		return nil, err
	}
	var files []FileEntry
	for i := uint32(0); i < n; i++ {
		var f FileEntry
		if f.Hash, err = r.hash(); err != nil {
			return files, err
		}
		if f.Size, err = r.uint64(); err != nil {
			return files, err
		}
		tags, err := r.uint32()
		if err != nil {
			return files, err
		}
		var all []Tag
		for j := uint32(0); j < tags; j++ {
			kind, err := r.byte()
			if err != nil {
				return files, err
			}
			name, err := r.byte()
			if err != nil {
				return files, err
			}
			switch kind {
			case tagKindString:
				s, err := r.string()
				if err != nil {
					return files, err
				}
				all = append(all, StringTag(name, s))
			case tagKindUint32:
				v, err := r.uint32()
				if err != nil {
					return files, err
				}
				all = append(all, Uint32Tag(name, v))
			default:
				return files, errBadTagKind
			}
		}
		for _, t := range all {
			switch {
			case t.Name == TagName && t.IsString:
				f.Name = t.Str
			case t.Name == TagType && t.IsString:
				f.Type = t.Str
			case t.Name == TagAvailability && !t.IsString:
				f.Availability = t.Num
			}
		}
		files = append(files, f)
	}
	return files, r.done()
}

func randomFiles(rng *rand.Rand, n int) []FileEntry {
	files := make([]FileEntry, n)
	for i := range files {
		for j := range files[i].Hash {
			files[i].Hash[j] = byte(rng.Uint32())
		}
		files[i].Size = rng.Uint64() % (1 << 40)
		files[i].Name = randString(rng, 40)
		files[i].Type = randString(rng, 10)
		files[i].Availability = rng.Uint32() % 1000
	}
	return files
}

// Property: over random SharedFilesAnswer and SearchResult payloads, cut
// anywhere or damaged anywhere, the walker visits exactly the entries
// the old decoder materialized before it gave up, fails exactly when it
// failed, and the general decoder agrees with both.
func TestFileWalkerMatchesReferenceDecoder(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 0x11E))
	for iter := 0; iter < 400; iter++ {
		op := byte(OpSharedFilesAnswer)
		var m Message = &SharedFilesAnswer{Files: randomFiles(rng, rng.IntN(20))}
		if iter%2 == 1 {
			op, m = OpSearchResult, &SearchResult{Files: m.(*SharedFilesAnswer).Files}
		}
		list := m.appendPayload(nil)
		switch iter / 2 % 4 {
		case 1:
			list = list[:rng.IntN(len(list)+1)]
		case 2:
			list[rng.IntN(len(list))] ^= byte(1 + rng.IntN(255))
		case 3:
			list = append(list, byte(rng.Uint32()))
		}
		want, wantErr := refFileEntries(list)

		w := WalkFiles(list)
		var got []FileEntry
		var v FileView
		for w.Next(&v) {
			got = append(got, v.Entry())
		}
		gotErr := w.Err()
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("iter %d: walker err %v, reference err %v", iter, gotErr, wantErr)
		}
		if (CheckFiles(list) == nil) != (wantErr == nil) {
			t.Fatalf("iter %d: CheckFiles disagrees with the reference (%v)", iter, wantErr)
		}
		// A count no tail could hold is refused before the first entry;
		// the reference decoded until the bytes ran out.
		if gotErr == nil || len(got) > 0 {
			if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
				t.Fatalf("iter %d: walker visited %d entries, reference %d", iter, len(got), len(want))
			}
		}

		decoded, err := Decode(op, list)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("iter %d: Decode err %v, reference err %v", iter, err, wantErr)
		}
		if err == nil {
			var files []FileEntry
			switch d := decoded.(type) {
			case *SharedFilesAnswer:
				files = d.Files
			case *SearchResult:
				files = d.Files
			}
			if !reflect.DeepEqual(files, want) && !(len(files) == 0 && len(want) == 0) {
				t.Fatalf("iter %d: Decode and the reference disagree", iter)
			}
		}
	}
}

func TestFileWalkerZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	list := (&SharedFilesAnswer{Files: randomFiles(rng, 100)}).appendPayload(nil)
	var sum uint64
	if n := testing.AllocsPerRun(100, func() {
		w := WalkFiles(list)
		var v FileView
		for w.Next(&v) {
			sum += v.Size + uint64(len(v.Name)) + uint64(len(v.Type))
		}
		if w.Err() != nil {
			t.Fatal(w.Err())
		}
	}); n != 0 {
		t.Fatalf("walking 100 entries allocated %v times", n)
	}
}

// ListFrame's field-by-field rendering is AppendMessage's, byte for byte.
func TestListFrameMatchesAppendMessage(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	files := randomFiles(rng, 25)
	want, _ := AppendMessage([]byte("prefix"), &SharedFilesAnswer{Files: files})
	var f ListFrame
	f.BeginFiles([]byte("prefix"), OpSharedFilesAnswer)
	for _, e := range files {
		f.AppendFile(e.Hash, e.Size, []byte(e.Name), e.Type, e.Availability)
	}
	if got := f.End(); !bytes.Equal(got, want) {
		t.Fatalf("ListFrame rendering differs from AppendMessage\n got %x\nwant %x", got, want)
	}
}

// writeRecorder keeps what is written to it and the largest write.
type writeRecorder struct {
	bytes.Buffer
	largest int
}

func (r *writeRecorder) Write(p []byte) (int, error) {
	r.largest = max(r.largest, len(p))
	return r.Buffer.Write(p)
}

// streamFiles writes files as one frame through a FileStream rendering
// into a buffer of capacity chunk.
func streamFiles(t *testing.T, w io.Writer, files []FileEntry, chunk int) {
	t.Helper()
	size := 0
	for _, e := range files {
		size += FileEntrySize(len(e.Name), e.Type)
	}
	var s FileStream
	if err := s.Begin(w, make([]byte, 0, chunk), OpSharedFilesAnswer, len(files), size); err != nil {
		t.Fatal(err)
	}
	for _, e := range files {
		s.AppendFile(e.Hash, e.Size, []byte(e.Name), e.Type, e.Availability)
	}
	if err := s.End(); err != nil {
		t.Fatal(err)
	}
}

// A streamed list is ListFrame's one-pass rendering byte for byte, for
// lists that fit the buffer, straddle it and run to many buffers, and
// none of its writes is larger than the buffer.
func TestFileStreamMatchesListFrame(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 9))
	for _, chunk := range []int{256, 8 << 10} {
		for _, n := range []int{0, 1, 3, 40, 2000} {
			files := randomFiles(rng, n)
			var f ListFrame
			f.BeginFiles(nil, OpSharedFilesAnswer)
			for _, e := range files {
				f.AppendFile(e.Hash, e.Size, []byte(e.Name), e.Type, e.Availability)
			}
			want := f.End()
			var rec writeRecorder
			streamFiles(t, &rec, files, chunk)
			if !bytes.Equal(rec.Bytes(), want) {
				t.Fatalf("chunk %d, %d entries: streamed frame differs from ListFrame's", chunk, n)
			}
			if rec.largest > chunk {
				t.Fatalf("chunk %d, %d entries: a write of %d bytes", chunk, n, rec.largest)
			}
		}
	}
}

// An entry that does not fit in what is left of the buffer goes out
// after the buffer is written; the stream's entry accounting catches a
// list that is not the one announced.
func TestFileStreamBoundaries(t *testing.T) {
	e := FileEntry{Name: "abc", Type: "audio"}
	n := FileEntrySize(len(e.Name), e.Type)
	// A buffer that holds the header and exactly one entry, then none.
	for _, chunk := range []int{10 + n, 10 + n - 1} {
		var rec writeRecorder
		streamFiles(t, &rec, []FileEntry{e, e}, chunk)
		want, _ := AppendMessage(nil, &SharedFilesAnswer{Files: []FileEntry{e, e}})
		if !bytes.Equal(rec.Bytes(), want) || rec.largest > chunk {
			t.Fatalf("chunk %d: streamed %x in writes up to %d, want %x", chunk, rec.Bytes(), rec.largest, want)
		}
	}
	var s FileStream
	if err := s.Begin(io.Discard, nil, OpSharedFilesAnswer, 2, 2*n); err != nil {
		t.Fatal(err)
	}
	s.AppendFile(e.Hash, e.Size, []byte(e.Name), e.Type, 0)
	if err := s.End(); err == nil {
		t.Fatal("a stream one entry short of its announcement ended without an error")
	}
}

// FileEntrySize is exact at the frame size limit: a list whose summed
// sizes put the payload at MaxMessageSize is framed by ListFrame and
// begun by FileStream, and one byte more is dropped by the one and
// refused by the other.
func TestFileEntrySizeAtTheLimit(t *testing.T) {
	if testenv.Race() {
		t.Skip("renders two 16 MB frames")
	}
	name := bytes.Repeat([]byte("n"), 60000)
	entries := (MaxMessageSize - 5) / FileEntrySize(len(name), "")
	rest := MaxMessageSize - 5 - entries*FileEntrySize(len(name), "")
	lastName := rest - FileEntrySize(0, "")
	for _, extra := range []int{0, 1} {
		last := name[:lastName+extra]
		var f ListFrame
		f.BeginFiles(nil, OpSharedFilesAnswer)
		size := 0
		for range entries {
			f.AppendFile([16]byte{}, 1, name, "", 0)
			size += FileEntrySize(len(name), "")
		}
		f.AppendFile([16]byte{}, 1, last, "", 0)
		size += FileEntrySize(len(last), "")
		framed := len(f.End()) > 0
		var s FileStream
		err := s.Begin(io.Discard, nil, OpSharedFilesAnswer, entries+1, size)
		if framed != (extra == 0) || (err == nil) != (extra == 0) {
			t.Fatalf("payload MaxMessageSize+%d: ListFrame framed it %v, FileStream.Begin err %v", extra, framed, err)
		}
		if extra == 1 && !errors.Is(err, ErrTooLarge) {
			t.Fatalf("payload past the limit: err %v, want ErrTooLarge", err)
		}
	}
}

// AppendFrame appends a frame's payload after what the buffer held, reads
// into the spare capacity without allocating, and grows a short buffer
// as the body arrives.
func TestAppendFrame(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 11))
	want := &SharedFilesAnswer{Files: randomFiles(rng, 3000)}
	raw, _ := AppendMessage(nil, want)
	op, out, err := AppendFrame(iotest1(raw), []byte("head"))
	if err != nil || op != OpSharedFilesAnswer || string(out[:4]) != "head" {
		t.Fatalf("AppendFrame: op %x, err %v, head %q", op, err, out[:min(4, len(out))])
	}
	if !bytes.Equal(out[4:], raw[6:]) {
		t.Fatal("appended payload differs from the frame's")
	}
	arena := make([]byte, 0, len(raw)+64)
	var rd bytes.Reader
	if n := testing.AllocsPerRun(10, func() {
		rd.Reset(raw)
		if _, _, err := AppendFrame(&rd, arena[:1]); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("AppendFrame into an arena with room allocated %v times", n)
	}
	// On error the buffer keeps its bytes and nothing more.
	if _, out, err := AppendFrame(bytes.NewReader(raw[:100]), []byte("head")); err == nil || string(out) != "head" {
		t.Fatalf("a cut frame: err %v, out %q", err, out)
	}
}

// AppendHelloAnswer is AppendMessage of the struct, byte for byte, and
// CheckHelloAnswer passes and fails exactly where Decode does.
func TestHelloAnswerInPlace(t *testing.T) {
	hash := [16]byte{1, 2, 3}
	for _, nick := range []string{"", "abc_17", string(bytes.Repeat([]byte("n"), 300))} {
		want, _ := AppendMessage([]byte("prefix"), &HelloAnswer{UserHash: hash, Nickname: nick})
		got := AppendHelloAnswer([]byte("prefix"), hash, []byte(nick))
		if !bytes.Equal(got, want) {
			t.Fatalf("nickname %q: AppendHelloAnswer differs from AppendMessage\n got %x\nwant %x", nick, got, want)
		}
	}
	whole, _ := AppendMessage(nil, &HelloAnswer{UserHash: hash, Nickname: "abc_17"})
	payload := whole[frameHeaderSize+1:]
	cases := [][]byte{payload, append(bytes.Clone(payload), 0), nil}
	for cut := range payload {
		cases = append(cases, payload[:cut])
	}
	for _, p := range cases {
		_, want := Decode(OpHelloAnswer, p)
		got := CheckHelloAnswer(p)
		if (got == nil) != (want == nil) || (got != nil && got.Error() != want.Error()) {
			t.Errorf("payload %x: CheckHelloAnswer = %v, Decode = %v", p, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		if err := CheckHelloAnswer(payload); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("CheckHelloAnswer allocated %v times", n)
	}
}

// WriteMessage borrows its frame buffer and hands it back without
// boxing a slice header on the way: a message written costs nothing.
func TestWriteMessageZeroAllocs(t *testing.T) {
	if testenv.Race() {
		t.Skip("sync.Pool sheds buffers under the race detector")
	}
	m := &Hello{UserHash: [16]byte{9}, Endpoint: Endpoint{IP: 0x0A000001, Port: 4662}, Nickname: "xyz_9"}
	if n := testing.AllocsPerRun(200, func() {
		if err := WriteMessage(io.Discard, m); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("WriteMessage allocated %v times", n)
	}
}

// serverBound is one well-formed frame per opcode a server reads.
func serverBound() []Message {
	hash := [16]byte{9, 8, 7, 6, 5, 4, 3, 2, 1}
	ep := Endpoint{IP: 0x0A000001, Port: 4662}
	return []Message{
		&LoginRequest{UserHash: hash, Endpoint: ep, Nickname: "abc_1", Version: 60},
		&GetServerList{},
		&OfferFiles{Files: []FileEntry{{Hash: hash, Size: 7, Name: "a.mp3", Type: "audio"}}},
		&SearchRequest{Keyword: "horizon"},
		&GetSources{Hash: hash},
		&SearchUser{Query: "aaa"},
		&Hello{UserHash: hash, Endpoint: ep, Nickname: "xyz_9"},
		&AskSharedFiles{},
	}
}

func TestRequestDecoderZeroAllocs(t *testing.T) {
	for _, m := range serverBound() {
		raw, _ := AppendMessage(nil, m)
		src := bytes.NewReader(raw)
		br := bufio.NewReaderSize(src, 4096)
		var dec RequestDecoder
		if n := testing.AllocsPerRun(200, func() {
			src.Reset(raw)
			br.Reset(src)
			if _, err := dec.Read(br); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("%T: Read allocated %v times", m, n)
		}
	}
}

// The decoder reads what ReadMessage reads, except that a publication
// comes back empty: its payload is skipped, not decoded.
func TestRequestDecoderMatchesReadMessage(t *testing.T) {
	var stream []byte
	for _, m := range serverBound() {
		stream, _ = AppendMessage(stream, m)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	rd := bytes.NewReader(stream)
	var dec RequestDecoder
	for _, sent := range serverBound() {
		got, err := dec.Read(br)
		if err != nil {
			t.Fatalf("%T: %v", sent, err)
		}
		want, err := ReadMessage(rd)
		if err != nil {
			t.Fatal(err)
		}
		if _, offer := want.(*OfferFiles); offer {
			want = &OfferFiles{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%T: decoder read %+v, ReadMessage %+v", sent, got, want)
		}
	}
	if _, err := dec.Read(br); err != io.EOF {
		t.Fatalf("at end of stream: %v, want io.EOF", err)
	}
}

func TestRequestDecoderRefusals(t *testing.T) {
	replies := []Message{
		&Reject{Reason: "x"}, &ServerList{}, &SearchResult{}, &ServerStatus{},
		&SearchUserResult{}, &IDChange{}, &FoundSources{}, &SharedFilesAnswer{}, &HelloAnswer{},
	}
	read := func(raw []byte) error {
		var dec RequestDecoder
		_, err := dec.Read(bufio.NewReader(bytes.NewReader(raw)))
		return err
	}
	for _, m := range replies {
		raw, _ := AppendMessage(nil, m)
		if err := read(raw); !errors.Is(err, ErrNotRequest) {
			t.Errorf("%T: err = %v, want ErrNotRequest", m, err)
		}
	}
	long := string(make([]byte, 4000))
	for _, m := range []Message{
		&SearchRequest{Keyword: long}, &SearchUser{Query: long},
		&LoginRequest{Nickname: long}, &Hello{Nickname: long},
	} {
		raw, _ := AppendMessage(nil, m)
		if err := read(raw); !errors.Is(err, ErrTooLarge) {
			t.Errorf("%T of %d bytes: err = %v, want ErrTooLarge", m, len(raw), err)
		}
	}
	for name, tc := range map[string]struct {
		raw  []byte
		want error
	}{
		"unknown opcode":    {frame(0xEE, nil), ErrUnknownOp},
		"bad marker":        {[]byte{0, 1, 0, 0, 0, OpGetServerList}, ErrBadMarker},
		"empty frame":       {[]byte{ProtoMarker, 0, 0, 0, 0, OpGetServerList}, ErrTruncated},
		"over MaxMessage":   {[]byte{ProtoMarker, 0xFF, 0xFF, 0xFF, 0xFF, OpOfferFiles}, ErrTooLarge},
		"stray payload":     {frame(OpGetServerList, []byte{1}), ErrTooLarge},
		"short hash":        {frame(OpGetSources, make([]byte, 15)), ErrTruncated},
		"cut in the header": {[]byte{ProtoMarker, 3, 0}, io.ErrUnexpectedEOF},
		"cut in the body":   {frame(OpGetSources, make([]byte, 16))[:12], io.ErrUnexpectedEOF},
		"cut publication":   {frame(OpOfferFiles, make([]byte, 100))[:50], io.ErrUnexpectedEOF},
	} {
		if err := read(tc.raw); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", name, err, tc.want)
		}
	}
	if err := read(frame(OpSearchUser, []byte{1, 0, 'a', 'b'})); err == nil {
		t.Error("trailing bytes accepted")
	}
}

// maxDecoderSize is the memory a connection's request decoder may hold,
// whatever has been sent to it.
const maxDecoderSize = 1 << 10

// The decoder's memory is the struct: it has no buffer that could grow
// with the frames it has seen, and a megabyte of publication passes
// through without being held.
func TestRequestDecoderHoldsAFixedSize(t *testing.T) {
	if size := unsafe.Sizeof(RequestDecoder{}); size > maxDecoderSize {
		t.Fatalf("RequestDecoder is %d bytes, above the %d-byte bound", size, maxDecoderSize)
	}
	raw := frame(OpOfferFiles, make([]byte, 1<<20))
	raw, _ = AppendMessage(raw, &SearchUser{Query: "ab"})
	src := bytes.NewReader(raw)
	br := bufio.NewReaderSize(src, 4096)
	var dec RequestDecoder
	got := allocBytes(1<<10, func() {
		src.Reset(raw)
		br.Reset(src)
		if m, err := dec.Read(br); err != nil || len(m.(*OfferFiles).Files) != 0 {
			t.Fatalf("publication: %v %v", m, err)
		}
		if m, err := dec.Read(br); err != nil || m.(*SearchUser).Query != "ab" {
			t.Fatalf("query after publication: %v %v", m, err)
		}
	})
	if got > 1<<10 {
		t.Fatalf("reading past a 1 MB publication allocated %d bytes", got)
	}
}

// sliceDir is a Directory over plain slices, visited without allocating.
type sliceDir struct {
	servers []Endpoint
	users   []UserEntry
	sources []Endpoint
	files   []FileEntry
}

func (d *sliceDir) ForEachServer(yield func(Endpoint) bool) {
	for _, e := range d.servers {
		if !yield(e) {
			return
		}
	}
}

func (d *sliceDir) UsersWithPrefix(_ string, yield func(UserEntry) bool) {
	for _, u := range d.users {
		if !yield(u) {
			return
		}
	}
}

func (d *sliceDir) ForEachSource(_ [16]byte, yield func(Endpoint) bool) {
	for _, e := range d.sources {
		if !yield(e) {
			return
		}
	}
}

func (d *sliceDir) ForEachFile(_ string, yield func(FileEntry) bool) {
	for _, f := range d.files {
		if !yield(f) {
			return
		}
	}
}

// AppendReply and Handle + WriteMessage agree on a directory of this
// package's own, and AppendReply into a grown buffer allocates nothing.
func TestAppendReplyOverSliceDirectory(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	dir := &sliceDir{
		servers: []Endpoint{{IP: 1, Port: 2}, {IP: 3, Port: 4}},
		sources: []Endpoint{{IP: 5, Port: 6}, {IP: 7, Port: 8}, {IP: 9, Port: 10}},
		files:   randomFiles(rng, 40),
	}
	for i := 0; i < 30; i++ {
		dir.users = append(dir.users, UserEntry{ClientID: uint32(i), Nickname: randString(rng, 12)})
	}
	core := &ServerCore{Dir: dir, MaxUserReplies: 20, SupportsUserSearch: true}
	reqs := []Message{&GetServerList{}, &SearchUser{Query: "a"}, &GetSources{Hash: [16]byte{1}}, &SearchRequest{Keyword: "k"}}
	buf := make([]byte, 0, 64<<10)
	for _, req := range reqs {
		ref, _ := core.Handle(req)
		var want bytes.Buffer
		if err := WriteMessage(&want, ref); err != nil {
			t.Fatal(err)
		}
		got, handled := core.AppendReply(buf[:0], req)
		if !handled || !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%T: AppendReply differs from Handle + WriteMessage", req)
		}
		if n := testing.AllocsPerRun(100, func() { core.AppendReply(buf[:0], req) }); n != 0 {
			t.Errorf("%T: AppendReply allocated %v times", req, n)
		}
	}
}
