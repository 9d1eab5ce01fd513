package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"rex/internal/dataset"
	"rex/internal/mf"
)

// savedFiles returns the bytes of a snapshot and of a two-record log that
// a Dir wrote, and an empty model's snapshot.
func savedFiles(tb testing.TB) (snap, emptySnap, wal []byte) {
	tb.Helper()
	read := func(d *Dir, name string) []byte {
		b, err := os.ReadFile(filepath.Join(d.path, name))
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	d, err := Open(tb.TempDir())
	if err != nil {
		tb.Fatal(err)
	}
	defer d.Close()
	if err := d.SaveSnapshot(0, 0, mf.New(mf.DefaultConfig()), nil); err != nil {
		tb.Fatal(err)
	}
	emptySnap = read(d, "snap-0000000000000000.rex")
	m := mf.New(mf.DefaultConfig())
	for i := 0; i < 5; i++ {
		m.Predict(uint32(i), uint32(i))
	}
	if err := d.SaveSnapshot(3, 0.97, m, testRatings(6, 0)); err != nil {
		tb.Fatal(err)
	}
	for _, base := range []int{100, 200} {
		if err := d.Append(testRatings(3, base)); err != nil {
			tb.Fatal(err)
		}
	}
	return read(d, "snap-0000000000000003.rex"), emptySnap, read(d, "wal-0000000000000003.rex")
}

// sealed returns b with a CRC-32 trailer over it, as SaveSnapshot ends a
// snapshot.
func sealed(b []byte) []byte {
	return binary.LittleEndian.AppendUint32(append([]byte(nil), b...), crc32.ChecksumIEEE(b))
}

// encodeSnapshot is a test-local snapshot writer over parsed fields.
func encodeSnapshot(s *Snapshot) []byte {
	b := append([]byte(nil), snapMagic...)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint64(b, uint64(s.Epoch))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(s.RMSE))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Model)))
	b = append(b, s.Model...)
	return sealed(dataset.EncodeRatingsAppend(b, s.Ratings))
}

// FuzzParseSnapshot throws arbitrary bytes at the snapshot parser — what
// a resuming node trusts from its data directory, model bytes included —
// both as given and sealed with a valid CRC trailer, so the parse behind
// the checksum is reached too. It must never panic, must accept only
// input whose trailer matches, must allocate no more than the input backs
// (plus the allocator's rounding), and an accepted snapshot must re-encode
// to exactly its input: the layout has no slack.
func FuzzParseSnapshot(f *testing.F) {
	snap, emptySnap, _ := savedFiles(f)
	if s, err := parseSnapshot(snap); err != nil || s.Epoch != 3 || len(s.Ratings) != 6 {
		f.Fatalf("test premise broken: the saved snapshot parses to %+v, %v", s, err)
	}
	f.Add(snap)
	f.Add(emptySnap)
	f.Add(snap[:len(snap)-4]) // sealed again, the body without its trailer
	f.Add(snap[:len(snap)-9])
	f.Add([]byte{})
	body := append([]byte(nil), emptySnap[:len(emptySnap)-8]...)
	f.Add(binary.LittleEndian.AppendUint32(body, math.MaxUint32)) // 2^32-1 ratings, no bytes
	lenAt := len(snapMagic) + 4 + 8 + 8
	huge := append([]byte(nil), snap[:len(snap)-4]...)
	binary.LittleEndian.PutUint32(huge[lenAt:], math.MaxUint32) // model length past the end
	f.Add(huge)

	f.Fuzz(func(t *testing.T, b []byte) {
		for _, in := range [][]byte{b, sealed(b)} {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			s, err := parseSnapshot(in)
			runtime.ReadMemStats(&ms)
			if grew, limit := ms.TotalAlloc-before, uint64(len(in)+len(in)/4+16<<10); grew > limit {
				t.Fatalf("parsing %d bytes allocated %d (limit %d)", len(in), grew, limit)
			}
			if err != nil {
				continue
			}
			crcOff := len(in) - 4
			if crc32.ChecksumIEEE(in[:crcOff]) != binary.LittleEndian.Uint32(in[crcOff:]) {
				t.Fatal("accepted a snapshot whose CRC does not match")
			}
			if out := encodeSnapshot(s); !bytes.Equal(out, in) {
				t.Fatalf("accepted %d bytes re-encode to %d different ones", len(in), len(out))
			}
		}
	})
}

// FuzzParseWAL throws arbitrary bytes at the log parser. Its result must
// be exactly the ratings of the longest prefix of whole records a
// reference re-encoding reproduces byte for byte — header length, CRC and
// a payload that is one rating block — whatever follows that prefix.
func FuzzParseWAL(f *testing.F) {
	_, _, wal := savedFiles(f)
	if n := len(parseWAL(wal)); n != 6 {
		f.Fatalf("test premise broken: the saved log replays %d ratings, want 6", n)
	}
	f.Add(wal)
	f.Add(wal[:len(wal)-5]) // torn tail
	f.Add(append(append([]byte(nil), wal...), 0, 0, 0))
	first := walRecordHd + 4 + 3*dataset.EncodedSize
	padded := append([]byte(nil), wal[:first]...)
	binary.LittleEndian.PutUint32(padded, uint32(first-walRecordHd+1)) // one byte past the block
	padded = append(padded, 0)
	binary.LittleEndian.PutUint32(padded[4:], crc32.ChecksumIEEE(padded[walRecordHd:]))
	f.Add(append(padded, wal[first:]...))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		var want []byte
		for rest := b; len(rest) >= walRecordHd; {
			plen := binary.LittleEndian.Uint32(rest)
			if uint64(plen) > uint64(len(rest)-walRecordHd) {
				break
			}
			rec := rest[:walRecordHd+int(plen)]
			rs, _, err := dataset.DecodeRatings(rec[walRecordHd:])
			if err != nil {
				break
			}
			payload := dataset.EncodeRatingsAppend(nil, rs)
			again := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
			again = binary.LittleEndian.AppendUint32(again, crc32.ChecksumIEEE(payload))
			if !bytes.Equal(append(again, payload...), rec) {
				break
			}
			want = append(want, payload[4:]...)
			rest = rest[len(rec):]
		}
		got := dataset.EncodeRatingsAppend(nil, parseWAL(b))
		if !bytes.Equal(got[4:], want) {
			t.Fatalf("parsed %d ratings, the valid prefix holds %d", len(got[4:])/dataset.EncodedSize, len(want)/dataset.EncodedSize)
		}
	})
}
