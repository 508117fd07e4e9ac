package main

import (
	"bytes"
	"path/filepath"
	"slices"
	"testing"

	"edonkey/internal/edonkey"
	"edonkey/internal/protocol"
	"edonkey/internal/serve"
	"edonkey/internal/trace"
)

// smallServeTrace writes a three-day trace of a small world, the shape
// the serve workloads use, and returns it with its path.
func smallServeTrace(t *testing.T) (*trace.Trace, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "serve.edt")
	tr, err := genTrace(400, serveDays, path)
	if err != nil {
		t.Fatal(err)
	}
	return tr, path
}

func TestVocabulariesAreSortedAndRepeat(t *testing.T) {
	tr, _ := smallServeTrace(t)
	v := harvest(tr, serveDay)
	if len(v.hashes) == 0 || len(v.topics) == 0 || len(v.words) == 0 {
		t.Fatalf("empty vocabulary: %d hashes, %d topics, %d words", len(v.hashes), len(v.topics), len(v.words))
	}
	if !slices.IsSortedFunc(v.hashes, func(a, b [16]byte) int { return bytes.Compare(a[:], b[:]) }) {
		t.Error("hashes are not sorted")
	}
	if !slices.IsSorted(v.topics) || !slices.IsSorted(v.words) {
		t.Error("topic tokens or name words are not sorted")
	}
	for _, tok := range v.topics {
		if len(tok) < 4 || tok[0] != 't' {
			t.Fatalf("topic token %q is not of the form tNNN", tok)
		}
	}
	// The same world built a second time and harvested again gives the same
	// lists: nothing depends on map order or on the run.
	tr2, _ := smallServeTrace(t)
	v2 := harvest(tr2, serveDay)
	if !slices.Equal(v.hashes, v2.hashes) || !slices.Equal(v.topics, v2.topics) || !slices.Equal(v.words, v2.words) {
		t.Error("the same population gave different vocabularies")
	}
}

func TestRequestBytesAreAFunctionOfSeedConnectionAndSegment(t *testing.T) {
	tr, _ := smallServeTrace(t)
	v := harvest(tr, serveDay)
	for _, m := range []mix{lookupMix, searchMix} {
		base := planConn(v, m, 1, 0, 1, 500)
		if again := planConn(v, m, 1, 0, 1, 500); !bytes.Equal(base.wire, again.wire) || !bytes.Equal(base.replyOps, again.replyOps) {
			t.Error("the same (seed, connection, segment) gave different request bytes")
		}
		for name, other := range map[string]connPlan{
			"seed":       planConn(v, m, 2, 0, 1, 500),
			"connection": planConn(v, m, 1, 1, 1, 500),
			"segment":    planConn(v, m, 1, 0, 2, 500),
		} {
			if bytes.Equal(base.wire, other.wire) {
				t.Errorf("changing the %s did not change the requests", name)
			}
		}
		if got, want := len(base.burstEnds), (500+loadDepth-1)/loadDepth; got != want {
			t.Errorf("%d bursts, want %d", got, want)
		}
		if base.burstEnds[len(base.burstEnds)-1] != len(base.wire) {
			t.Error("the last burst does not end at the end of the wire bytes")
		}
	}
}

func TestLookupMixFollowsItsWeights(t *testing.T) {
	tr, _ := smallServeTrace(t)
	v := harvest(tr, serveDay)
	const n = 20000
	p := planConn(v, lookupMix, 1, 0, 1, n)
	count := map[byte]int{}
	for _, op := range p.replyOps {
		count[op]++
	}
	for _, e := range lookupMix {
		got := float64(count[e.class.replyOpcode()]) / n
		if want := float64(e.weight) / 100; got < want-0.02 || got > want+0.02 {
			t.Errorf("class %v: share %.3f, want %.2f", e.class, got, want)
		}
	}
}

// TestServerRepliesMatchOracle runs the whole serving path small: a
// server on a trace file, the fleet, planned segments of both mixes, and
// the in-process oracle the traced run checks digests against.
func TestServerRepliesMatchOracle(t *testing.T) {
	tr, path := smallServeTrace(t)
	v := harvest(tr, serveDay)
	srv, ln, err := startServer(path)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer ln.Close()
	fleet, err := dialFleet(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.close()

	sc := &protocol.ServerCore{
		Dir:                serve.SnapshotFromTrace(tr, serveDay),
		MaxUserReplies:     edonkey.DefaultMaxUserReplies,
		SupportsUserSearch: true,
	}
	for _, m := range []mix{lookupMix, searchMix} {
		for seg := 1; seg <= 2; seg++ {
			plans := planSegment(v, m, 2, seg, 600)
			out, err := fleet.runSegment(plans)
			if err != nil {
				t.Fatal(err)
			}
			if out.ops != 600 || out.failed != 0 {
				t.Errorf("segment %d: %d ops, %d failed", seg, out.ops, out.failed)
			}
			want, err := oracleDigest(sc, plans)
			if err != nil {
				t.Fatal(err)
			}
			if out.digest != want {
				t.Errorf("segment %d: server sent %s, oracle renders %s", seg, out.digest, want)
			}
			if out.replyBytes == 0 || len(out.bursts) == 0 {
				t.Errorf("segment %d: %d reply bytes, %d bursts", seg, out.replyBytes, len(out.bursts))
			}
		}
	}
}
