package workload

import (
	"math/rand/v2"
	"strconv"

	"edonkey/internal/trace"
)

// Word pools for synthetic file names. Names only matter for realism of
// the protocol layer (keyword search, browse listings); analyses never
// parse them.
var (
	nameAdjectives = []string{
		"blue", "silent", "lost", "golden", "electric", "midnight",
		"broken", "rising", "hidden", "final", "neon", "distant",
	}
	nameNouns = []string{
		"horizon", "river", "echo", "empire", "garden", "signal",
		"shadow", "harbor", "motel", "station", "mirror", "winter",
	}
)

// NameWords returns the word pool file names are drawn from. Every
// synthetic file name contains exactly one adjective and one noun from
// this list, so it doubles as the exhaustive keyword vocabulary for
// load harnesses driving the server's keyword search.
func NameWords() []string {
	out := make([]string, 0, len(nameAdjectives)+len(nameNouns))
	out = append(out, nameAdjectives...)
	out = append(out, nameNouns...)
	return out
}

func extFor(k trace.FileKind) string {
	switch k {
	case trace.KindAudio:
		return "mp3"
	case trace.KindVideo:
		return "avi"
	case trace.KindArchive:
		return "zip"
	case trace.KindProgram:
		return "exe"
	case trace.KindDocument:
		return "pdf"
	case trace.KindImage:
		return "jpg"
	default:
		return "bin"
	}
}

// fileNameWords makes the name's two word draws. The columnar catalogue
// stores just these two nibbles and re-synthesizes the string on demand
// with formatFileName.
func fileNameWords(rng *rand.Rand) (adj, noun uint8) {
	adj = uint8(rng.IntN(len(nameAdjectives)))
	noun = uint8(rng.IntN(len(nameNouns)))
	return adj, noun
}

// maxNameLen bounds every synthesized file name and nickname, so callers
// can render them into a stack buffer of this size.
const maxNameLen = 64

// appendFileName renders a file name from its stored word draws as
// "<adj>_<noun>_t<topic %03d>_<seq %04d>.<ext>"; the parts after the two
// words (topic, in-topic sequence, extension) are structural.
func appendFileName(dst []byte, adj, noun uint8, topic int, kind trace.FileKind, seq int) []byte {
	dst = append(dst, nameAdjectives[adj]...)
	dst = append(dst, '_')
	dst = append(dst, nameNouns[noun]...)
	dst = append(dst, "_t"...)
	dst = appendZeroPadded(dst, topic, 3)
	dst = append(dst, '_')
	dst = appendZeroPadded(dst, seq, 4)
	dst = append(dst, '.')
	return append(dst, extFor(kind)...)
}

// appendZeroPadded appends v the way fmt's %0<width>d prints it.
func appendZeroPadded(dst []byte, v, width int) []byte {
	if v < 0 {
		dst = append(dst, '-')
		v, width = -v, width-1
	}
	var digits [20]byte
	s := strconv.AppendInt(digits[:0], int64(v), 10)
	for n := len(s); n < width; n++ {
		dst = append(dst, '0')
	}
	return append(dst, s...)
}

func formatFileName(adj, noun uint8, topic int, kind trace.FileKind, seq int) string {
	var buf [maxNameLen]byte
	return string(appendFileName(buf[:0], adj, noun, topic, kind, seq))
}

// fileName synthesizes a plausible shared-file name, unique per
// (topic, sequence) pair.
func fileName(rng *rand.Rand, topic int, kind trace.FileKind, seq int) string {
	adj, noun := fileNameWords(rng)
	return formatFileName(adj, noun, topic, kind, seq)
}

const nickLetters = "abcdefghijklmnopqrstuvwxyz"

// nicknameLetters draws the three leading nickname letters and packs them
// base-26 into one uint16; nicknameAt re-synthesizes the full string.
func nicknameLetters(rng *rand.Rand) uint16 {
	v := uint16(rng.IntN(26))
	v = v*26 + uint16(rng.IntN(26))
	v = v*26 + uint16(rng.IntN(26))
	return v
}

// appendNickname renders the nickname of client id from its packed
// letters as "<abc>_<id>".
func appendNickname(dst []byte, packed uint16, id int) []byte {
	dst = append(dst,
		nickLetters[packed/676],
		nickLetters[(packed/26)%26],
		nickLetters[packed%26],
		'_')
	return strconv.AppendInt(dst, int64(id), 10)
}

func nicknameAt(packed uint16, id int) string {
	var buf [maxNameLen]byte
	return string(appendNickname(buf[:0], packed, id))
}

// nickname synthesizes a client nickname starting with three lowercase
// letters, the shape the crawler's query sweep (aaa..zzz) relies on.
// Many users share short prefixes, which is why the paper's crawler could
// not retrieve every user — the same collision behaviour emerges here.
func nickname(rng *rand.Rand, id int) string {
	return nicknameAt(nicknameLetters(rng), id)
}
