package protocol

import (
	"cmp"
	"encoding/binary"
)

// Endpoint identifies a reachable peer.
type Endpoint struct {
	IP   uint32
	Port uint16
}

// Compare orders endpoints by IP, then port: the order every directory
// lists sources and servers in.
func (e Endpoint) Compare(o Endpoint) int {
	if c := cmp.Compare(e.IP, o.IP); c != 0 {
		return c
	}
	return cmp.Compare(e.Port, o.Port)
}

func appendEndpoint(dst []byte, e Endpoint) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, e.IP)
	return binary.LittleEndian.AppendUint16(dst, e.Port)
}

// endpointSize is an encoded Endpoint: IP and port.
const endpointSize = 6

func readEndpoint(r *reader) (Endpoint, error) {
	ip, err := r.uint32()
	if err != nil {
		return Endpoint{}, err
	}
	port, err := r.uint16()
	if err != nil {
		return Endpoint{}, err
	}
	return Endpoint{IP: ip, Port: port}, nil
}

// FileEntry describes one shared file in publications, browse answers and
// search results.
type FileEntry struct {
	Hash [16]byte
	Size uint64
	Name string
	Type string
	// Availability is the source count a server reports in results.
	Availability uint32
}

func appendFileEntry(dst []byte, f FileEntry) []byte {
	dst = appendFileHead(dst, &f.Hash, f.Size, len(f.Name))
	dst = append(dst, f.Name...)
	return appendFileTail(dst, f.Type, f.Availability)
}

// appendFileHead encodes an entry up to the bytes of its name, which the
// caller appends — from a string or from a scratch buffer — before
// appendFileTail closes the entry.
func appendFileHead(dst []byte, hash *[16]byte, size uint64, nameLen int) []byte {
	dst = append(dst, hash[:]...)
	dst = binary.LittleEndian.AppendUint64(dst, size)
	dst = binary.LittleEndian.AppendUint32(dst, 3) // tag count
	dst = append(dst, tagKindString, TagName)
	return binary.LittleEndian.AppendUint16(dst, uint16(nameLen))
}

func appendFileTail(dst []byte, typ string, avail uint32) []byte {
	dst = appendTag(dst, StringTag(TagType, typ))
	return appendTag(dst, Uint32Tag(TagAvailability, avail))
}

// FileEntrySize is the exact encoded size of a file entry with a name of
// nameLen bytes and the given type: what appendFileHead, the name and
// appendFileTail write together. A writer that must announce a list's
// size before its first entry sums it over the entries.
func FileEntrySize(nameLen int, typ string) int {
	const (
		head = 16 + 8 + 4 + 2 + 2 // hash, size, tag count, name tag, name length
		tail = 2 + 2 + 2 + 4      // type tag and length, availability tag and value
	)
	return head + nameLen + tail + len(typ)
}

func appendFileEntries(dst []byte, files []FileEntry) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(files)))
	for _, f := range files {
		dst = appendFileEntry(dst, f)
	}
	return dst
}

// minFileEntrySize is the shortest encoded entry: hash, size and an
// empty tag list.
const minFileEntrySize = 16 + 8 + 4

// FileView is one entry of an encoded list read in place. Name and Type
// alias the list's bytes and are valid as long as those are.
type FileView struct {
	Hash         [16]byte
	Size         uint64
	Name, Type   []byte
	Availability uint32
}

// Entry copies the view into a FileEntry that owns its strings.
func (v *FileView) Entry() FileEntry {
	return FileEntry{Hash: v.Hash, Size: v.Size, Name: string(v.Name), Type: string(v.Type), Availability: v.Availability}
}

// FileWalker walks the encoded entry list of an OfferFiles, SearchResult
// or SharedFilesAnswer payload without materializing it: no FileEntry,
// no tag slice, no string. Next stops at the first malformed entry and
// Err says why.
type FileWalker struct {
	r    reader
	left int
	err  error
}

// WalkFiles starts a walk over list, the whole payload of one of the
// three list-carrying messages.
func WalkFiles(list []byte) FileWalker { return walkFilesAt(reader{buf: list}) }

// walkFilesAt starts a walk at r's position.
func walkFilesAt(r reader) FileWalker {
	w := FileWalker{r: r}
	w.left, w.err = w.r.count(minFileEntrySize)
	return w
}

// Len returns how many entries the list still declares; it is never
// more than the remaining bytes could hold.
func (w *FileWalker) Len() int { return w.left }

// Next reads the next entry into v and reports whether there was one.
func (w *FileWalker) Next(v *FileView) bool {
	if w.left == 0 || w.err != nil {
		return false
	}
	if w.err = w.entry(v); w.err != nil {
		return false
	}
	w.left--
	return true
}

func (w *FileWalker) entry(v *FileView) (err error) {
	r := &w.r
	if v.Hash, err = r.hash(); err != nil {
		return err
	}
	if v.Size, err = r.uint64(); err != nil {
		return err
	}
	tags, err := r.count(minTagSize)
	if err != nil {
		return err
	}
	v.Name, v.Type, v.Availability = nil, nil, 0
	for ; tags > 0; tags-- {
		t, err := r.tag()
		if err != nil {
			return err
		}
		switch {
		case t.name == TagName && t.isString:
			v.Name = t.str
		case t.name == TagType && t.isString:
			v.Type = t.str
		case t.name == TagAvailability && !t.isString:
			v.Availability = t.num
		}
	}
	return nil
}

// Entries walks to the end and returns the entries visited on the way as
// FileEntry values that own their strings.
func (w *FileWalker) Entries() []FileEntry {
	files := make([]FileEntry, 0, w.left)
	var v FileView
	for w.Next(&v) {
		files = append(files, v.Entry())
	}
	return files
}

// Err returns the error that stopped the walk, or, once every entry has
// been visited, an error if bytes trail the last one.
func (w *FileWalker) Err() error {
	if w.err == nil && w.left == 0 {
		return w.r.done()
	}
	return w.err
}

// CheckFiles walks list to its end and returns what stopped the walk, nil
// for a well-formed list.
func CheckFiles(list []byte) error {
	w := WalkFiles(list)
	var v FileView
	for w.Next(&v) {
	}
	return w.Err()
}

// readFileEntries materializes the list at r's position through the
// walker and leaves r after it.
func readFileEntries(r *reader) ([]FileEntry, error) {
	w := walkFilesAt(*r)
	files := w.Entries()
	*r = w.r
	return files, w.err
}

// UserEntry describes one client in a user-search reply.
type UserEntry struct {
	Hash     [16]byte
	ClientID uint32 // high IDs are directly reachable, low IDs firewalled
	Endpoint Endpoint
	Nickname string
}

func appendUserEntry(dst []byte, u UserEntry) []byte {
	dst = append(dst, u.Hash[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, u.ClientID)
	dst = appendEndpoint(dst, u.Endpoint)
	return appendString(dst, u.Nickname)
}

// minUserEntrySize is the shortest encoded entry: hash, client ID,
// endpoint and an empty nickname.
const minUserEntrySize = 16 + 4 + endpointSize + 2

// LoginRequest is sent by a client right after connecting to a server.
type LoginRequest struct {
	UserHash [16]byte
	Endpoint Endpoint
	Nickname string
	Version  uint32
}

func (*LoginRequest) Opcode() byte { return OpLoginRequest }

func (m *LoginRequest) appendPayload(dst []byte) []byte {
	dst = append(dst, m.UserHash[:]...)
	dst = appendEndpoint(dst, m.Endpoint)
	dst = binary.LittleEndian.AppendUint32(dst, 2) // tag count
	dst = appendTag(dst, StringTag(TagNickname, m.Nickname))
	return appendTag(dst, Uint32Tag(TagVersion, m.Version))
}

func (m *LoginRequest) decode(r *reader) (err error) {
	*m = LoginRequest{}
	if m.UserHash, err = r.hash(); err != nil {
		return err
	}
	if m.Endpoint, err = readEndpoint(r); err != nil {
		return err
	}
	tags, err := r.count(minTagSize)
	if err != nil {
		return err
	}
	for ; tags > 0; tags-- {
		t, err := r.tag()
		if err != nil {
			return err
		}
		switch {
		case t.name == TagNickname && t.isString:
			m.Nickname = r.str(t.str)
		case t.name == TagVersion && !t.isString:
			m.Version = t.num
		}
	}
	return nil
}

// Reject answers a request the peer refuses (e.g. browsing disabled).
type Reject struct{ Reason string }

func (*Reject) Opcode() byte { return OpReject }

func (m *Reject) appendPayload(dst []byte) []byte { return appendString(dst, m.Reason) }

func (m *Reject) decode(r *reader) (err error) {
	m.Reason, err = r.string()
	return err
}

// GetServerList asks a server for the other servers it knows — the only
// data eDonkey servers exchanged.
type GetServerList struct{}

func (*GetServerList) Opcode() byte { return OpGetServerList }

func (*GetServerList) appendPayload(dst []byte) []byte { return dst }

// ServerList carries known server endpoints.
type ServerList struct{ Servers []Endpoint }

func (*ServerList) Opcode() byte { return OpServerList }

func (m *ServerList) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Servers)))
	for _, s := range m.Servers {
		dst = appendEndpoint(dst, s)
	}
	return dst
}

func (m *ServerList) decode(r *reader) (err error) {
	m.Servers, err = readEndpoints(r)
	return err
}

// readEndpoints reads a counted endpoint list.
func readEndpoints(r *reader) ([]Endpoint, error) {
	n, err := r.count(endpointSize)
	if err != nil || n == 0 {
		return nil, err
	}
	eps := make([]Endpoint, n)
	for i := range eps {
		if eps[i], err = readEndpoint(r); err != nil {
			return nil, err
		}
	}
	return eps, nil
}

// OfferFiles publishes the client's cache contents to its server.
type OfferFiles struct{ Files []FileEntry }

func (*OfferFiles) Opcode() byte { return OpOfferFiles }

func (m *OfferFiles) appendPayload(dst []byte) []byte { return appendFileEntries(dst, m.Files) }

func (m *OfferFiles) decode(r *reader) (err error) {
	m.Files, err = readFileEntries(r)
	return err
}

// SearchRequest is a (simplified single-keyword) file search.
type SearchRequest struct{ Keyword string }

func (*SearchRequest) Opcode() byte { return OpSearchRequest }

func (m *SearchRequest) appendPayload(dst []byte) []byte { return appendString(dst, m.Keyword) }

func (m *SearchRequest) decode(r *reader) (err error) {
	m.Keyword, err = r.string()
	return err
}

// SearchResult carries matching files.
type SearchResult struct{ Files []FileEntry }

func (*SearchResult) Opcode() byte { return OpSearchResult }

func (m *SearchResult) appendPayload(dst []byte) []byte { return appendFileEntries(dst, m.Files) }

func (m *SearchResult) decode(r *reader) (err error) {
	m.Files, err = readFileEntries(r)
	return err
}

// GetSources asks the server for sources of a file.
type GetSources struct{ Hash [16]byte }

func (*GetSources) Opcode() byte { return OpGetSources }

func (m *GetSources) appendPayload(dst []byte) []byte { return append(dst, m.Hash[:]...) }

func (m *GetSources) decode(r *reader) (err error) {
	m.Hash, err = r.hash()
	return err
}

// FoundSources answers GetSources.
type FoundSources struct {
	Hash    [16]byte
	Sources []Endpoint
}

func (*FoundSources) Opcode() byte { return OpFoundSources }

func (m *FoundSources) appendPayload(dst []byte) []byte {
	dst = append(dst, m.Hash[:]...)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Sources)))
	for _, s := range m.Sources {
		dst = appendEndpoint(dst, s)
	}
	return dst
}

func (m *FoundSources) decode(r *reader) (err error) {
	if m.Hash, err = r.hash(); err != nil {
		return err
	}
	m.Sources, err = readEndpoints(r)
	return err
}

// SearchUser asks the server for users whose nickname starts with the
// query — the (now removed) feature the paper's crawler was built on.
type SearchUser struct{ Query string }

func (*SearchUser) Opcode() byte { return OpSearchUser }

func (m *SearchUser) appendPayload(dst []byte) []byte { return appendString(dst, m.Query) }

func (m *SearchUser) decode(r *reader) (err error) {
	m.Query, err = r.string()
	return err
}

// SearchUserResult answers SearchUser with at most the server's reply cap
// (200 in the paper) of matching users.
type SearchUserResult struct{ Users []UserEntry }

func (*SearchUserResult) Opcode() byte { return OpSearchUserResult }

func (m *SearchUserResult) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(m.Users)))
	for _, u := range m.Users {
		dst = appendUserEntry(dst, u)
	}
	return dst
}

func (m *SearchUserResult) decode(r *reader) error {
	n, err := r.count(minUserEntrySize)
	if err != nil {
		return err
	}
	m.Users = make([]UserEntry, n)
	for i := range m.Users {
		u := &m.Users[i]
		if u.Hash, err = r.hash(); err != nil {
			return err
		}
		if u.ClientID, err = r.uint32(); err != nil {
			return err
		}
		if u.Endpoint, err = readEndpoint(r); err != nil {
			return err
		}
		if u.Nickname, err = r.string(); err != nil {
			return err
		}
	}
	return nil
}

// ServerStatus reports user and file counts.
type ServerStatus struct {
	Users uint32
	Files uint32
}

func (*ServerStatus) Opcode() byte { return OpServerStatus }

func (m *ServerStatus) appendPayload(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, m.Users)
	return binary.LittleEndian.AppendUint32(dst, m.Files)
}

func (m *ServerStatus) decode(r *reader) (err error) {
	if m.Users, err = r.uint32(); err != nil {
		return err
	}
	m.Files, err = r.uint32()
	return err
}

// IDChange tells a freshly logged-in client its server-assigned ID.
// Low IDs (< LowIDThreshold) mark firewalled clients.
type IDChange struct{ ClientID uint32 }

// LowIDThreshold separates firewalled (low) from reachable (high) IDs.
const LowIDThreshold = 0x01000000

// HighID is the ID a server assigns a client it could reach at ip: the
// address itself, lifted out of the low range where it would fall there.
func HighID(ip uint32) uint32 {
	if ip < LowIDThreshold {
		return ip + LowIDThreshold
	}
	return ip
}

func (*IDChange) Opcode() byte { return OpIDChange }

func (m *IDChange) appendPayload(dst []byte) []byte {
	return binary.LittleEndian.AppendUint32(dst, m.ClientID)
}

func (m *IDChange) decode(r *reader) (err error) {
	m.ClientID, err = r.uint32()
	return err
}

// Hello opens a client-client session.
type Hello struct {
	UserHash [16]byte
	Endpoint Endpoint
	Nickname string
}

func (*Hello) Opcode() byte { return OpHello }

func (m *Hello) appendPayload(dst []byte) []byte {
	dst = append(dst, m.UserHash[:]...)
	dst = appendEndpoint(dst, m.Endpoint)
	return appendString(dst, m.Nickname)
}

func (m *Hello) decode(r *reader) (err error) {
	if m.UserHash, err = r.hash(); err != nil {
		return err
	}
	if m.Endpoint, err = readEndpoint(r); err != nil {
		return err
	}
	m.Nickname, err = r.string()
	return err
}

// HelloAnswer completes the client-client handshake.
type HelloAnswer struct {
	UserHash [16]byte
	Nickname string
}

func (*HelloAnswer) Opcode() byte { return OpHelloAnswer }

func (m *HelloAnswer) appendPayload(dst []byte) []byte {
	dst = append(dst, m.UserHash[:]...)
	return appendString(dst, m.Nickname)
}

func (m *HelloAnswer) decode(r *reader) (err error) {
	if m.UserHash, err = r.hash(); err != nil {
		return err
	}
	m.Nickname, err = r.string()
	return err
}

// AppendHelloAnswer appends the frame of a HelloAnswer whose nickname
// the caller holds as bytes: what AppendMessage makes of the struct,
// without the string.
func AppendHelloAnswer(dst []byte, userHash [16]byte, nickname []byte) []byte {
	size := 1 + len(userHash) + 2 + len(nickname)
	dst = append(dst, ProtoMarker)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(size))
	dst = append(dst, OpHelloAnswer)
	dst = append(dst, userHash[:]...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(nickname)))
	return append(dst, nickname...)
}

// CheckHelloAnswer decodes payload as a HelloAnswer in place and returns
// what Decode would have failed with, nil for a well-formed answer: the
// handshake's CheckFiles, for a caller that wants the check and not the
// message.
func CheckHelloAnswer(payload []byte) error {
	r := reader{buf: payload, alias: true}
	var m HelloAnswer
	if err := m.decode(&r); err != nil {
		return err
	}
	return r.done()
}

// AskSharedFiles requests the peer's cache listing (browse). Users could
// disable answering it — and increasingly did, which is why the paper
// notes a similar crawl is no longer possible.
type AskSharedFiles struct{}

func (*AskSharedFiles) Opcode() byte { return OpAskSharedFiles }

func (*AskSharedFiles) appendPayload(dst []byte) []byte { return dst }

// SharedFilesAnswer lists the peer's shared files.
type SharedFilesAnswer struct{ Files []FileEntry }

func (*SharedFilesAnswer) Opcode() byte { return OpSharedFilesAnswer }

func (m *SharedFilesAnswer) appendPayload(dst []byte) []byte { return appendFileEntries(dst, m.Files) }

func (m *SharedFilesAnswer) decode(r *reader) (err error) {
	m.Files, err = readFileEntries(r)
	return err
}
