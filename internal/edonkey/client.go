package edonkey

import (
	"fmt"
	"net"
	"sync"
	"time"

	"edonkey/internal/protocol"
)

// Client is a second-tier eDonkey client: it publishes its cache to a
// server, answers client-client handshakes and — unless the user disabled
// it — browse requests. Firewalled clients never listen, so every direct
// connection to them fails, exactly the loss the paper's crawler had to
// filter out.
type Client struct {
	// The identity is fixed by NewClient: the handshake frame is encoded
	// from it there, once.
	UserHash [16]byte
	Endpoint protocol.Endpoint
	Nickname string
	// Firewalled clients cannot accept incoming connections.
	Firewalled bool
	// BrowseOK is the "allow others to view my shared files" setting.
	BrowseOK bool

	net *Network
	// hello is the client's Hello as a frame, what every browse dial
	// opens with.
	hello []byte

	mu     sync.Mutex
	shared []protocol.FileEntry
	online bool
}

// askSharedFiles is the browse request as a frame: it has no fields.
var askSharedFiles, _ = protocol.AppendMessage(nil, &protocol.AskSharedFiles{})

// NewClient builds a client on the switchboard. Call SetShared and
// GoOnline to make it part of the network.
func NewClient(n *Network, hash [16]byte, ep protocol.Endpoint, nickname string) *Client {
	// A frame of a hash, an endpoint and a nickname cannot be too large.
	hello, _ := protocol.AppendMessage(nil, &protocol.Hello{UserHash: hash, Endpoint: ep, Nickname: nickname})
	return &Client{
		UserHash: hash,
		Endpoint: ep,
		Nickname: nickname,
		BrowseOK: true,
		net:      n,
		hello:    hello,
	}
}

// SetShared replaces the client's cache listing.
func (c *Client) SetShared(files []protocol.FileEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.shared = append(c.shared[:0:0], files...)
}

// Shared returns a copy of the current cache listing.
func (c *Client) Shared() []protocol.FileEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]protocol.FileEntry(nil), c.shared...)
}

// GoOnline starts accepting connections (unless firewalled).
func (c *Client) GoOnline() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.online {
		return nil
	}
	if !c.Firewalled {
		if err := c.net.Listen(c.Endpoint, c.serveConn); err != nil {
			return err
		}
	}
	c.online = true
	return nil
}

// GoOffline stops accepting connections.
func (c *Client) GoOffline() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.online {
		return
	}
	if !c.Firewalled {
		c.net.Unlisten(c.Endpoint)
	}
	c.online = false
}

// serveConn answers client-client sessions: handshake and browsing.
func (c *Client) serveConn(conn net.Conn) {
	defer conn.Close()
	for {
		m, err := protocol.ReadMessage(conn)
		if err != nil {
			return
		}
		var reply protocol.Message
		switch m.(type) {
		case *protocol.Hello:
			reply = &protocol.HelloAnswer{UserHash: c.UserHash, Nickname: c.Nickname}
		case *protocol.AskSharedFiles:
			if !c.BrowseOK {
				reply = &protocol.Reject{Reason: "browsing disabled"}
			} else {
				c.mu.Lock()
				files := append([]protocol.FileEntry(nil), c.shared...)
				c.mu.Unlock()
				reply = &protocol.SharedFilesAnswer{Files: files}
			}
		default:
			reply = &protocol.Reject{Reason: "unsupported"}
		}
		if err := send(conn, reply, c.net.DialTimeout); err != nil {
			return
		}
	}
}

// Session is an open client-server connection.
type Session struct {
	conn     net.Conn
	timeout  time.Duration
	ClientID uint32
}

// Connect dials a server, logs in and returns the session. The returned
// session must be Closed.
func (c *Client) Connect(server protocol.Endpoint) (*Session, error) {
	conn, err := c.net.Dial(server)
	if err != nil {
		return nil, err
	}
	reply, err := request(conn, &protocol.LoginRequest{
		UserHash: c.UserHash,
		Endpoint: c.Endpoint,
		Nickname: c.Nickname,
		Version:  60,
	}, c.net.DialTimeout)
	if err != nil {
		conn.Close()
		return nil, err
	}
	id, ok := reply.(*protocol.IDChange)
	if !ok {
		conn.Close()
		return nil, fmt.Errorf("edonkey: unexpected login reply %T", reply)
	}
	return &Session{conn: conn, timeout: c.net.DialTimeout, ClientID: id.ClientID}, nil
}

// Close terminates the session.
func (s *Session) Close() error { return s.conn.Close() }

// LowID reports whether the server marked this session firewalled.
func (s *Session) LowID() bool { return s.ClientID < protocol.LowIDThreshold }

// Publish offers the client's current cache to the server.
func (c *Client) Publish(s *Session) error {
	c.mu.Lock()
	files := append([]protocol.FileEntry(nil), c.shared...)
	c.mu.Unlock()
	return send(s.conn, &protocol.OfferFiles{Files: files}, s.timeout)
}

// SearchUsers runs a nickname-prefix query on the session's server.
func (s *Session) SearchUsers(query string) ([]protocol.UserEntry, error) {
	reply, err := request(s.conn, &protocol.SearchUser{Query: query}, s.timeout)
	if err != nil {
		return nil, err
	}
	switch r := reply.(type) {
	case *protocol.SearchUserResult:
		return r.Users, nil
	case *protocol.Reject:
		return nil, fmt.Errorf("edonkey: server rejected user search: %s", r.Reason)
	default:
		return nil, fmt.Errorf("edonkey: unexpected reply %T", reply)
	}
}

// GetSources asks the server for sources of a file.
func (s *Session) GetSources(hash [16]byte) ([]protocol.Endpoint, error) {
	reply, err := request(s.conn, &protocol.GetSources{Hash: hash}, s.timeout)
	if err != nil {
		return nil, err
	}
	fs, ok := reply.(*protocol.FoundSources)
	if !ok {
		return nil, fmt.Errorf("edonkey: unexpected reply %T", reply)
	}
	return fs.Sources, nil
}

// Search runs a keyword search on the session's server.
func (s *Session) Search(keyword string) ([]protocol.FileEntry, error) {
	reply, err := request(s.conn, &protocol.SearchRequest{Keyword: keyword}, s.timeout)
	if err != nil {
		return nil, err
	}
	sr, ok := reply.(*protocol.SearchResult)
	if !ok {
		return nil, fmt.Errorf("edonkey: unexpected reply %T", reply)
	}
	return sr.Files, nil
}

// ServerList fetches the server's known-servers list.
func (s *Session) ServerList() ([]protocol.Endpoint, error) {
	reply, err := request(s.conn, &protocol.GetServerList{}, s.timeout)
	if err != nil {
		return nil, err
	}
	sl, ok := reply.(*protocol.ServerList)
	if !ok {
		return nil, fmt.Errorf("edonkey: unexpected reply %T", reply)
	}
	return sl.Servers, nil
}

// Browse connects to another client and retrieves its shared-file list:
// handshake, then AskSharedFiles. It returns ErrUnreachable for
// firewalled/offline targets and an error for browse-disabled ones.
func (c *Client) Browse(target protocol.Endpoint) ([]protocol.FileEntry, error) {
	list, err := c.BrowseList(target)
	if err != nil {
		return nil, err
	}
	w := protocol.WalkFiles(list)
	return w.Entries(), nil
}

// BrowseList is Browse without the decoding: it returns the answer's
// entry list as it came off the wire, checked to be well formed, in a
// buffer the caller owns. Walk it with protocol.WalkFiles. Both replies
// are checked where they lie; only one that is not what the exchange
// expects is decoded, to say what it was.
func (c *Client) BrowseList(target protocol.Endpoint) ([]byte, error) {
	conn, err := c.net.Dial(target)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	op, payload, scratch, err := requestFrame(conn, c.hello, nil, c.net.DialTimeout)
	if err != nil {
		return nil, err
	}
	if op != protocol.OpHelloAnswer {
		reply, err := protocol.Decode(op, payload)
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("edonkey: unexpected hello reply %T", reply)
	}
	if err := protocol.CheckHelloAnswer(payload); err != nil {
		return nil, err
	}
	op, payload, _, err = requestFrame(conn, askSharedFiles, scratch, c.net.DialTimeout)
	if err != nil {
		return nil, err
	}
	if op == protocol.OpSharedFilesAnswer {
		if err := protocol.CheckFiles(payload); err != nil {
			return nil, err
		}
		return payload, nil
	}
	reply, err := protocol.Decode(op, payload)
	if err != nil {
		return nil, err
	}
	if r, ok := reply.(*protocol.Reject); ok {
		return nil, fmt.Errorf("edonkey: browse rejected: %s", r.Reason)
	}
	return nil, fmt.Errorf("edonkey: unexpected browse reply %T", reply)
}
