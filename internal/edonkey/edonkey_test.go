package edonkey

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"

	"edonkey/internal/md4"
	"edonkey/internal/protocol"
)

func ep(ip uint32) protocol.Endpoint { return protocol.Endpoint{IP: ip, Port: 4662} }

func hashOf(b byte) [16]byte { return [16]byte{b} }

func newTestServer(t *testing.T) (*Network, *Server) {
	t.Helper()
	n := NewNetwork()
	s := NewServer(n, ep(0xFFFF0001))
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Stop)
	return n, s
}

func TestLoginAssignsHighAndLowIDs(t *testing.T) {
	n, s := newTestServer(t)
	_ = s

	open := NewClient(n, hashOf(1), ep(10), "aaa_1")
	if err := open.GoOnline(); err != nil {
		t.Fatal(err)
	}
	defer open.GoOffline()
	sess, err := open.Connect(ep(0xFFFF0001))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.LowID() {
		t.Error("reachable client got a low ID")
	}

	fw := NewClient(n, hashOf(2), ep(11), "aab_2")
	fw.Firewalled = true
	if err := fw.GoOnline(); err != nil {
		t.Fatal(err)
	}
	defer fw.GoOffline()
	sess2, err := fw.Connect(ep(0xFFFF0001))
	if err != nil {
		t.Fatal(err)
	}
	defer sess2.Close()
	if !sess2.LowID() {
		t.Error("firewalled client got a high ID")
	}
}

func TestPublishAndQuerySources(t *testing.T) {
	n, _ := newTestServer(t)
	c1 := NewClient(n, hashOf(1), ep(10), "aaa_1")
	c2 := NewClient(n, hashOf(2), ep(11), "aab_2")
	for _, c := range []*Client{c1, c2} {
		if err := c.GoOnline(); err != nil {
			t.Fatal(err)
		}
		defer c.GoOffline()
	}
	file := protocol.FileEntry{Hash: hashOf(0xAA), Size: 1000, Name: "blue_river.mp3", Type: "audio"}
	c1.SetShared([]protocol.FileEntry{file})
	c2.SetShared([]protocol.FileEntry{file})

	for _, c := range []*Client{c1, c2} {
		sess, err := c.Connect(ep(0xFFFF0001))
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Publish(sess); err != nil {
			t.Fatal(err)
		}
		// Query on the same session to confirm ordering semantics.
		if _, err := sess.ServerList(); err != nil {
			t.Fatal(err)
		}
		sess.Close()
	}

	sess, err := c1.Connect(ep(0xFFFF0001))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	srcs, err := sess.GetSources(file.Hash)
	if err != nil {
		t.Fatal(err)
	}
	if len(srcs) != 2 {
		t.Fatalf("sources = %v, want both clients", srcs)
	}

	// Keyword search finds the file with availability 2.
	res, err := sess.Search("river")
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Availability != 2 {
		t.Fatalf("search result = %+v", res)
	}
	// Unknown keyword finds nothing.
	res, err = sess.Search("zzz")
	if err != nil || len(res) != 0 {
		t.Fatalf("unexpected result for unknown keyword: %v, %v", res, err)
	}
}

func TestSearchUserPrefixAndCap(t *testing.T) {
	n, s := newTestServer(t)
	s.MaxUserReplies = 5
	for i := 0; i < 12; i++ {
		c := NewClient(n, hashOf(byte(10+i)), ep(uint32(100+i)), fmt.Sprintf("aaa_%d", i))
		if err := c.GoOnline(); err != nil {
			t.Fatal(err)
		}
		defer c.GoOffline()
		sess, err := c.Connect(ep(0xFFFF0001))
		if err != nil {
			t.Fatal(err)
		}
		sess.Close()
	}
	crawler := NewClient(n, hashOf(1), ep(99), "crawler")
	if err := crawler.GoOnline(); err != nil {
		t.Fatal(err)
	}
	defer crawler.GoOffline()
	sess, err := crawler.Connect(ep(0xFFFF0001))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	users, err := sess.SearchUsers("aaa")
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 5 {
		t.Errorf("reply size = %d, want the cap 5", len(users))
	}
	users, err = sess.SearchUsers("zzz")
	if err != nil {
		t.Fatal(err)
	}
	if len(users) != 0 {
		t.Errorf("prefix zzz matched %d users", len(users))
	}
}

func TestSearchUserUnsupported(t *testing.T) {
	n, s := newTestServer(t)
	s.SupportsUserSearch = false
	c := NewClient(n, hashOf(1), ep(10), "aaa_1")
	if err := c.GoOnline(); err != nil {
		t.Fatal(err)
	}
	defer c.GoOffline()
	sess, err := c.Connect(ep(0xFFFF0001))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.SearchUsers("aaa"); err == nil {
		t.Error("expected rejection from a server without query-users")
	}
}

func TestBrowse(t *testing.T) {
	n, _ := newTestServer(t)
	target := NewClient(n, hashOf(3), ep(20), "bbb_3")
	target.SetShared([]protocol.FileEntry{
		{Hash: hashOf(0xCC), Size: 7, Name: "x.mp3", Type: "audio"},
	})
	if err := target.GoOnline(); err != nil {
		t.Fatal(err)
	}
	defer target.GoOffline()

	crawler := NewClient(n, hashOf(4), ep(21), "crawler")
	files, err := crawler.Browse(ep(20))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0].Name != "x.mp3" {
		t.Fatalf("browse = %+v", files)
	}

	// BrowseList hands back the same answer undecoded.
	list, err := crawler.BrowseList(ep(20))
	if err != nil {
		t.Fatal(err)
	}
	w := protocol.WalkFiles(list)
	var v protocol.FileView
	if w.Len() != 1 || !w.Next(&v) || v.Entry() != files[0] || w.Next(&v) || w.Err() != nil {
		t.Fatalf("browse list walks to %+v (err %v), want %+v", v.Entry(), w.Err(), files[0])
	}
}

func TestBrowseDisabled(t *testing.T) {
	n, _ := newTestServer(t)
	target := NewClient(n, hashOf(3), ep(20), "bbb_3")
	target.BrowseOK = false
	if err := target.GoOnline(); err != nil {
		t.Fatal(err)
	}
	defer target.GoOffline()
	crawler := NewClient(n, hashOf(4), ep(21), "crawler")
	if _, err := crawler.Browse(ep(20)); err == nil || !strings.Contains(err.Error(), "rejected") {
		t.Errorf("browse of disabled client: err = %v, want rejection", err)
	}
}

func TestBrowseFirewalledFails(t *testing.T) {
	n, _ := newTestServer(t)
	target := NewClient(n, hashOf(3), ep(20), "bbb_3")
	target.Firewalled = true
	if err := target.GoOnline(); err != nil {
		t.Fatal(err)
	}
	defer target.GoOffline()
	crawler := NewClient(n, hashOf(4), ep(21), "crawler")
	if _, err := crawler.Browse(ep(20)); err == nil {
		t.Error("browsing a firewalled client should fail to connect")
	}
}

func TestOfflineClientUnreachable(t *testing.T) {
	n, _ := newTestServer(t)
	c := NewClient(n, hashOf(3), ep(20), "bbb_3")
	if err := c.GoOnline(); err != nil {
		t.Fatal(err)
	}
	c.GoOffline()
	other := NewClient(n, hashOf(4), ep(21), "x")
	if _, err := other.Browse(ep(20)); err == nil {
		t.Error("offline client still reachable")
	}
	// Double GoOffline is harmless; re-online works.
	c.GoOffline()
	if err := c.GoOnline(); err != nil {
		t.Fatal(err)
	}
	c.GoOffline()
}

func TestServerListExchange(t *testing.T) {
	n, s := newTestServer(t)
	s.AddKnownServer(ep(0xFFFF0002))
	c := NewClient(n, hashOf(1), ep(10), "aaa_1")
	if err := c.GoOnline(); err != nil {
		t.Fatal(err)
	}
	defer c.GoOffline()
	sess, err := c.Connect(ep(0xFFFF0001))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	servers, err := sess.ServerList()
	if err != nil {
		t.Fatal(err)
	}
	if len(servers) != 2 {
		t.Errorf("server list = %v, want 2 entries", servers)
	}
}

func TestServerStatsAndDisconnect(t *testing.T) {
	n, s := newTestServer(t)
	c := NewClient(n, hashOf(1), ep(10), "aaa_1")
	c.SetShared([]protocol.FileEntry{{Hash: hashOf(9), Name: "a.mp3"}})
	if err := c.GoOnline(); err != nil {
		t.Fatal(err)
	}
	defer c.GoOffline()
	sess, err := c.Connect(ep(0xFFFF0001))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Publish(sess); err != nil {
		t.Fatal(err)
	}
	// Publish has no reply; issue a follow-up request to synchronize.
	if _, err := sess.ServerList(); err != nil {
		t.Fatal(err)
	}
	sess.Close()
	users, files := s.Stats()
	if users != 1 || files != 1 {
		t.Errorf("stats = %d users, %d files", users, files)
	}
	s.DisconnectAll()
	users, files = s.Stats()
	if users != 0 || files != 0 {
		t.Errorf("after disconnect: %d users, %d files", users, files)
	}
}

func TestDuplicateListen(t *testing.T) {
	n := NewNetwork()
	handler := func(c net.Conn) { c.Close() }
	if err := n.Listen(ep(1), handler); err != nil {
		t.Fatal(err)
	}
	if err := n.Listen(ep(1), handler); err == nil {
		t.Error("duplicate Listen succeeded")
	}
	if !n.Listening(ep(1)) {
		t.Error("Listening(ep) = false for registered endpoint")
	}
	n.Unlisten(ep(1))
	if n.Listening(ep(1)) {
		t.Error("endpoint still listening after Unlisten")
	}
	if _, err := n.Dial(ep(1)); err == nil {
		t.Error("Dial succeeded after Unlisten")
	}
}

func TestFileHashSmall(t *testing.T) {
	// A sub-block file's identifier is simply its MD4.
	data := []byte("edonkey block test")
	id, blocks, size, err := FileHash(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(data)) {
		t.Errorf("size = %d", size)
	}
	if len(blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(blocks))
	}
	want := md4.Sum(data)
	if id != want {
		t.Errorf("id = %x, want plain MD4 %x", id, want)
	}
	if HashBytes(data) != want {
		t.Error("HashBytes disagrees with FileHash")
	}
}

func TestFileHashMultiBlock(t *testing.T) {
	// Two blocks: id = MD4(digest1 || digest2).
	data := make([]byte, BlockSize+1000)
	for i := range data {
		data[i] = byte(i)
	}
	id, blocks, size, err := FileHash(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if size != int64(len(data)) || len(blocks) != 2 {
		t.Fatalf("size=%d blocks=%d", size, len(blocks))
	}
	d1 := md4.Sum(data[:BlockSize])
	d2 := md4.Sum(data[BlockSize:])
	if blocks[0] != d1 || blocks[1] != d2 {
		t.Error("block digests wrong")
	}
	root := md4.New()
	root.Write(d1[:])
	root.Write(d2[:])
	var want [16]byte
	copy(want[:], root.Sum(nil))
	if id != want {
		t.Errorf("root id = %x, want %x", id, want)
	}
}

func TestFileHashExactBlockBoundary(t *testing.T) {
	// Exactly one block: like the original client, an extra empty-block
	// digest is appended, so the id is a root hash over two digests.
	data := bytes.Repeat([]byte{7}, BlockSize)
	id, blocks, _, err := FileHash(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 {
		t.Fatalf("blocks = %d, want 2 (content + empty tail)", len(blocks))
	}
	empty := md4.Sum(nil)
	if blocks[1] != empty {
		t.Error("tail block should be the empty-input MD4")
	}
	if id == blocks[0] {
		t.Error("boundary file id must differ from its single content digest")
	}
}

func TestFileHashDeterministicAcrossPeers(t *testing.T) {
	data := bytes.Repeat([]byte{42}, 3*BlockSize+17)
	a := HashBytes(data)
	b := HashBytes(data)
	if a != b {
		t.Error("same content hashed differently")
	}
	data[0] ^= 1
	if HashBytes(data) == a {
		t.Error("different content produced same identifier")
	}
}
