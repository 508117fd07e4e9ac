package workload

import (
	"fmt"
	"testing"

	"edonkey/internal/trace"
)

// The append renderers print what the fmt verbs they replaced printed:
// "%s_%s_t%03d_%04d.%s" for a file name and "%s_%d" for a nickname.
func TestAppendRenderersMatchFmt(t *testing.T) {
	for _, v := range []int{0, 7, 99, 100, 999, 1000, 9999, 10000, 123456, -1, -12, -123, -1234} {
		for _, width := range []int{3, 4} {
			want := fmt.Sprintf("%0*d", width, v)
			if got := string(appendZeroPadded(nil, v, width)); got != want {
				t.Errorf("appendZeroPadded(%d, %d) = %q, want %q", v, width, got, want)
			}
		}
	}
	kinds := []trace.FileKind{trace.KindAudio, trace.KindVideo, trace.KindArchive, trace.KindProgram,
		trace.KindDocument, trace.KindImage, trace.KindOther}
	for adj := range nameAdjectives {
		for noun := range nameNouns {
			for k, kind := range kinds {
				topic, seq := adj*97+k, noun*1013+adj
				want := fmt.Sprintf("%s_%s_t%03d_%04d.%s", nameAdjectives[adj], nameNouns[noun], topic, seq, extFor(kind))
				got := appendFileName([]byte("x"), uint8(adj), uint8(noun), topic, kind, seq)
				if string(got) != "x"+want {
					t.Fatalf("appendFileName = %q, want %q after the prefix", got, want)
				}
				if s := formatFileName(uint8(adj), uint8(noun), topic, kind, seq); s != want {
					t.Fatalf("formatFileName = %q, want %q", s, want)
				}
				if len(want) > maxNameLen {
					t.Fatalf("%q is longer than maxNameLen", want)
				}
			}
		}
	}
	for _, id := range []int{0, 9, 10, 4711, 999999, 1 << 30} {
		for _, packed := range []uint16{0, 1, 26, 675, 676, 17575} {
			letters := []byte{nickLetters[packed/676], nickLetters[(packed/26)%26], nickLetters[packed%26]}
			want := fmt.Sprintf("%s_%d", letters, id)
			if got := string(appendNickname(nil, packed, id)); got != want {
				t.Errorf("appendNickname(%d, %d) = %q, want %q", packed, id, got, want)
			}
			if got := nicknameAt(packed, id); got != want {
				t.Errorf("nicknameAt(%d, %d) = %q, want %q", packed, id, got, want)
			}
		}
	}
}

// A world's append accessors agree with its string accessors and render
// into a caller's buffer without allocating.
func TestWorldAppendNames(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 9
	cfg.Peers = 200
	cfg.Days = 2
	cfg.Topics = 10
	cfg.InitialFiles = 800
	cfg.NewFilesPerDay = 10
	w, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf [maxNameLen]byte
	for fi := 0; fi < w.NumFiles(); fi++ {
		if got := string(w.AppendFileName(buf[:0], fi)); got != w.FileName(fi) {
			t.Fatalf("file %d: AppendFileName %q, FileName %q", fi, got, w.FileName(fi))
		}
	}
	for i := 0; i < w.NumClients(); i++ {
		if got := string(w.AppendNickname(buf[:0], i)); got != w.Nickname(i) {
			t.Fatalf("client %d: AppendNickname %q, Nickname %q", i, got, w.Nickname(i))
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		w.AppendFileName(buf[:0], w.NumFiles()-1)
		w.AppendNickname(buf[:0], w.NumClients()-1)
	}); n != 0 {
		t.Fatalf("append renderers allocated %v times", n)
	}
}
