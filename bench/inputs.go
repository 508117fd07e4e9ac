package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"

	"edonkey/internal/protocol"
	"edonkey/internal/trace"
	"edonkey/internal/workload"
)

// genTrace makes the input of the repro and serve workloads: an oracle
// trace of the benchmark's population at the given size, written as
// .edt. The trace is returned too, so the caller can harvest request
// vocabularies from what it wrote.
func genTrace(peers, days int, path string) (*trace.Trace, error) {
	tr, _, err := workload.Collect(worldConfig(peers, days))
	if err != nil {
		return nil, fmt.Errorf("generate trace: %w", err)
	}
	if err := tr.WriteFile(path); err != nil {
		return nil, fmt.Errorf("write trace: %w", err)
	}
	return tr, nil
}

// vocab is what the request generator draws from. Every list is sorted,
// so a draw is a function of the seed and never of map iteration order.
type vocab struct {
	hashes [][16]byte // files some peer shares on the served day
	topics []string   // the topic tokens ("t042") of those files' names
	words  []string   // the catalogue-wide name words
}

// harvest collects the vocabularies from one day of a trace, the day the
// server will freeze.
func harvest(tr *trace.Trace, dayIdx int) vocab {
	published := make([]bool, tr.NumFiles())
	tr.Days[dayIdx].ForEachRow(func(_ trace.PeerID, row []trace.FileID) {
		for _, f := range row {
			published[f] = true
		}
	})
	var v vocab
	for f, ok := range published {
		if !ok {
			continue
		}
		v.hashes = append(v.hashes, tr.FileHash(trace.FileID(f)))
		// Names read adjective_noun_tNNN_seq.ext.
		if parts := strings.Split(tr.FileName(trace.FileID(f)), "_"); len(parts) == 4 {
			v.topics = append(v.topics, parts[2])
		}
	}
	slices.SortFunc(v.hashes, func(a, b [16]byte) int { return bytes.Compare(a[:], b[:]) })
	slices.Sort(v.topics)
	v.topics = slices.Compact(v.topics)
	v.words = workload.NameWords()
	slices.Sort(v.words)
	return v
}

// reqClass is one kind of request the generator can draw.
type reqClass uint8

const (
	classSources reqClass = iota
	classUsers
	classSearch
	classLogin
	classServerList
	numClasses
)

func (c reqClass) String() string {
	return [...]string{"sources", "users", "search", "login", "serverlist"}[c]
}

// replyOpcode is the opcode a well-formed answer to the class carries.
func (c reqClass) replyOpcode() byte {
	return [...]byte{
		protocol.OpFoundSources, protocol.OpSearchUserResult,
		protocol.OpSearchResult, protocol.OpIDChange, protocol.OpServerList,
	}[c]
}

const letters = "abcdefghijklmnopqrstuvwxyz"

// draw makes a stream's i-th request of the given class. Where a
// class has a cheap and a costly form the two alternate by position, not
// by chance, so every seed's stream carries the same share of each.
func (v vocab) draw(c reqClass, rng *rand.Rand, i int) protocol.Message {
	switch c {
	case classSources:
		return &protocol.GetSources{Hash: v.hashes[rng.IntN(len(v.hashes))]}
	case classUsers:
		// Half one-letter prefixes, which hit the 200-reply cap at this
		// population, half two-letter ones, which do not.
		q := string(letters[rng.IntN(26)])
		if i%2 == 1 {
			q += string(letters[rng.IntN(26)])
		}
		return &protocol.SearchUser{Query: q}
	case classSearch:
		// 2 % catalogue-wide words (a twelfth of the catalogue per
		// reply), the rest topic tokens (about a hundred entries).
		if i%50 == 49 {
			return &protocol.SearchRequest{Keyword: v.words[rng.IntN(len(v.words))]}
		}
		return &protocol.SearchRequest{Keyword: v.topics[rng.IntN(len(v.topics))]}
	case classLogin:
		var h [16]byte
		for i := range h {
			h[i] = byte(rng.Uint32())
		}
		return &protocol.LoginRequest{
			UserHash: h,
			Endpoint: protocol.Endpoint{IP: rng.Uint32(), Port: 4662},
			Nickname: "bench",
			Version:  1,
		}
	default:
		return &protocol.GetServerList{}
	}
}

// mix is a weighted choice of classes; weights are percentages.
type mix []struct {
	class  reqClass
	weight int
}

// lookupMix follows the weights of "Ten weeks in the life of an eDonkey
// server" among the small-message classes; searchMix is keyword search
// alone.
var (
	lookupMix = mix{{classSources, 60}, {classUsers, 30}, {classServerList, 5}, {classLogin, 5}}
	searchMix = mix{{classSearch, 100}}
)

func (m mix) pick(rng *rand.Rand) reqClass {
	x := rng.IntN(100)
	for _, e := range m {
		if x -= e.weight; x < 0 {
			return e.class
		}
	}
	return m[len(m)-1].class
}

// connPlan is one connection's share of a segment: its requests,
// pre-encoded, cut into bursts, with the opcode each reply must carry.
type connPlan struct {
	wire      []byte // request frames back to back
	burstEnds []int  // wire offset after each burst
	replyOps  []byte // per request
}

// planConn draws and encodes n requests for one connection of one
// segment. The stream is keyed by (seed, connection, segment) and by
// nothing else.
func planConn(v vocab, m mix, seed uint64, conn, seg, n int) connPlan {
	rng := rand.New(rand.NewPCG(seed, uint64(conn)<<32|uint64(seg)))
	p := connPlan{replyOps: make([]byte, 0, n)}
	var drawn [numClasses]int
	for i := 0; i < n; i++ {
		c := m.pick(rng)
		// AppendMessage fails only past the 16 MB frame limit, which no
		// request approaches.
		p.wire, _ = protocol.AppendMessage(p.wire, v.draw(c, rng, drawn[c]))
		drawn[c]++
		p.replyOps = append(p.replyOps, c.replyOpcode())
		if (i+1)%loadDepth == 0 || i == n-1 {
			p.burstEnds = append(p.burstEnds, len(p.wire))
		}
	}
	return p
}

// planSegment plans every connection of a segment of n requests.
func planSegment(v vocab, m mix, seed uint64, seg, n int) []connPlan {
	plans := make([]connPlan, loadConns)
	for c := range plans {
		plans[c] = planConn(v, m, seed, c, seg, n/loadConns)
	}
	return plans
}
