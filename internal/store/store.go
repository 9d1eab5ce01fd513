// Package store persists a REX node's state across process restarts, so a
// killed daemon (cmd/rexd) resumes from where it was instead of retraining
// from scratch. Two artifacts live in a node's data directory:
//
//   - Versioned model snapshots (snap-<epoch>.rex): the serialized model
//     (model.AppendMarshaler when available, so the parameter body is
//     written with no staging copy), the full raw-data store, the epoch
//     count and test RMSE — everything a resumed node needs. Snapshots
//     are written to a temp file, fsynced, CRC-sealed and atomically
//     renamed into place; the previous snapshot is kept as a fallback
//     until the next one lands, so a crash mid-write can never destroy
//     the last good state.
//
//   - A rating write-ahead log (wal-<epoch>.rex): ratings ingested online
//     (serve's /rate) between snapshots, appended as CRC-framed records
//     and fsynced before the ingestion is acknowledged. On restart every
//     retained log is replayed on top of the snapshot — including logs
//     older than the snapshot's epoch, because a rating logged moments
//     before a capture may not have reached the node store yet (it can
//     still sit in the engine's ingestion mailbox). Replay is idempotent:
//     the node store dedups on (user, item) with newest-value-wins, and
//     logs replay in epoch order. A torn tail record (crash mid-append)
//     is detected by its CRC and dropped.
//
// Gossip-merged data between snapshots is deliberately NOT logged: REX
// sampling is stateless, so anything lost to a crash is re-gossiped by
// neighbors in later rounds, while user ratings exist nowhere else — they
// are the only state that must be durable the moment it is accepted.
package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"rex/internal/dataset"
	"rex/internal/model"
)

const (
	snapMagic   = "REXSNAP1"
	snapPrefix  = "snap-"
	walPrefix   = "wal-"
	suffix      = ".rex"
	walRecordHd = 8 // u32 payload length + u32 CRC
)

// Snapshot is one persisted node state.
type Snapshot struct {
	// Epoch is the number of training epochs completed at capture time.
	Epoch int
	// RMSE is the local test RMSE at capture time (informational).
	RMSE float64
	// Model is the serialized model (model.Model Marshal bytes).
	Model []byte
	// Ratings is the full raw-data store at capture time.
	Ratings []dataset.Rating
}

// Dir manages one node's data directory.
type Dir struct {
	path string
	// wal is the open log for ratings ingested since the newest snapshot;
	// walEpoch is the snapshot epoch it belongs to.
	wal      *os.File
	walEpoch int
	// buf is reused across snapshot writes and WAL appends.
	buf []byte
}

// Open creates (if needed) and opens a node data directory. No WAL is
// opened until the first Append or SaveSnapshot.
func Open(path string) (*Dir, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Dir{path: path, walEpoch: -1}, nil
}

// Close closes the open WAL, if any.
func (d *Dir) Close() error {
	if d.wal == nil {
		return nil
	}
	err := d.wal.Close()
	d.wal = nil
	return err
}

func (d *Dir) snapName(epoch int) string {
	return filepath.Join(d.path, fmt.Sprintf("%s%016x%s", snapPrefix, epoch, suffix))
}

func (d *Dir) walName(epoch int) string {
	return filepath.Join(d.path, fmt.Sprintf("%s%016x%s", walPrefix, epoch, suffix))
}

// parseEpoch extracts the epoch from a snap-/wal- file name; ok is false
// for foreign files.
func parseEpoch(name, prefix string) (int, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hexPart := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
	v, err := strconv.ParseUint(hexPart, 16, 63)
	if err != nil {
		return 0, false
	}
	return int(v), true
}

// list returns the epochs of the files with the given prefix, ascending.
func (d *Dir) list(prefix string) ([]int, error) {
	entries, err := os.ReadDir(d.path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var epochs []int
	for _, e := range entries {
		if ep, ok := parseEpoch(e.Name(), prefix); ok {
			epochs = append(epochs, ep)
		}
	}
	sort.Ints(epochs)
	return epochs, nil
}

// SaveSnapshot atomically persists the node state and rotates the WAL: a
// new empty log keyed to this epoch is opened, and snapshots and logs
// older than the previous snapshot are pruned. The rotated-away log is
// NOT assumed subsumed by the snapshot — a rating appended to it just
// before the capture may still be in flight toward the node store — so it
// is retained until pruning and replayed by Load. The model serializes
// through model.AppendMarshaler when implemented, reusing one buffer
// across snapshots.
func (d *Dir) SaveSnapshot(epoch int, rmse float64, m model.Model, ratings []dataset.Rating) error {
	// Layout: magic | u32 version | u64 epoch | u64 rmse bits |
	// u32 modelLen | model | ratings block | u32 CRC(all prior bytes).
	b := append(d.buf[:0], snapMagic...)
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = binary.LittleEndian.AppendUint64(b, uint64(epoch))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rmse))
	lenOff := len(b)
	b = binary.LittleEndian.AppendUint32(b, 0)
	var err error
	if am, ok := m.(model.AppendMarshaler); ok {
		b, err = am.MarshalAppend(b)
	} else {
		var mb []byte
		mb, err = m.Marshal()
		b = append(b, mb...)
	}
	if err != nil {
		return fmt.Errorf("store: marshaling model: %w", err)
	}
	binary.LittleEndian.PutUint32(b[lenOff:], uint32(len(b)-lenOff-4))
	b = dataset.EncodeRatingsAppend(b, ratings)
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
	d.buf = b

	tmp, err := os.CreateTemp(d.path, "snap-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), d.snapName(epoch)); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	d.syncDir()

	if err := d.rotateWAL(epoch); err != nil {
		return err
	}
	return d.prune()
}

// rotateWAL closes the current log and opens a fresh one for this epoch.
func (d *Dir) rotateWAL(epoch int) error {
	if d.wal != nil {
		d.wal.Close()
		d.wal = nil
	}
	f, err := os.OpenFile(d.walName(epoch), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	d.wal, d.walEpoch = f, epoch
	return nil
}

// prune keeps the newest snapshot plus one fallback, and every WAL at or
// after the oldest kept snapshot: the fallback path needs those logs to
// replay forward, and the newest snapshot's capture may predate ratings
// logged against the previous epoch (mailbox lag). A WAL is deleted only
// once two newer snapshots exist — by then the engine has drained its
// mailbox at least a full generation after the log rotated away, so every
// rating the log held is in the newest snapshot's store. With fewer than
// two snapshots nothing is old enough to go: the first generation's log
// (wal-0) holds ratings the first snapshot's capture may have missed.
func (d *Dir) prune() error {
	snaps, err := d.list(snapPrefix)
	if err != nil {
		return err
	}
	if len(snaps) < 2 {
		return nil
	}
	keepFrom := snaps[len(snaps)-2]
	for _, ep := range snaps {
		if ep < keepFrom {
			os.Remove(d.snapName(ep))
		}
	}
	wals, err := d.list(walPrefix)
	if err != nil {
		return err
	}
	for _, ep := range wals {
		if ep < keepFrom {
			os.Remove(d.walName(ep))
		}
	}
	return nil
}

// Append durably logs ingested ratings: one CRC-framed record, fsynced
// before returning, so an acknowledged rating survives kill -9. Call
// SaveSnapshot at least once first (or Load on a populated directory) so
// the log is keyed to a snapshot epoch; before any snapshot exists the
// log is keyed to epoch 0.
func (d *Dir) Append(rs []dataset.Rating) error {
	if len(rs) == 0 {
		return nil
	}
	if d.wal == nil {
		if err := d.rotateWAL(maxInt(d.walEpoch, 0)); err != nil {
			return err
		}
	}
	payload := dataset.EncodeRatingsAppend(d.buf[:0], rs)
	d.buf = payload
	var hdr [walRecordHd]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := d.wal.Write(hdr[:]); err != nil {
		return fmt.Errorf("store: wal: %w", err)
	}
	if _, err := d.wal.Write(payload); err != nil {
		return fmt.Errorf("store: wal: %w", err)
	}
	if err := d.wal.Sync(); err != nil {
		return fmt.Errorf("store: wal: %w", err)
	}
	return nil
}

// Load restores the newest valid persisted state: the snapshot (nil if the
// directory holds none — a fresh node) and the ratings replayed from every
// retained WAL, in log order — including WALs keyed before the snapshot's
// epoch. A rating acknowledged just before a capture can be in the log of
// the *previous* epoch while not yet in the captured store (it is still in
// the engine's ingestion mailbox), so skipping older logs would silently
// drop an acknowledged rating across kill -9 + resume; replaying them is
// safe because the node store dedups on (user, item) newest-wins and logs
// replay oldest-first. A corrupt newest snapshot falls back to the
// previous one; a torn WAL tail is dropped with the records before it
// preserved. Load also positions the WAL so subsequent Appends continue
// the newest log.
func (d *Dir) Load() (*Snapshot, []dataset.Rating, error) {
	snaps, err := d.list(snapPrefix)
	if err != nil {
		return nil, nil, err
	}
	var snap *Snapshot
	for i := len(snaps) - 1; i >= 0 && snap == nil; i-- {
		s, err := readSnapshot(d.snapName(snaps[i]))
		if err != nil {
			// Corrupt or torn: fall back to the previous version.
			continue
		}
		snap = s
	}
	wals, err := d.list(walPrefix)
	if err != nil {
		return nil, nil, err
	}
	var replayed []dataset.Rating
	newestWAL := -1
	for _, ep := range wals {
		rs, err := readWAL(d.walName(ep))
		if err != nil {
			return nil, nil, err
		}
		replayed = append(replayed, rs...)
		newestWAL = ep
	}
	// Continue appending to the newest log rather than truncating history.
	if newestWAL >= 0 {
		if err := d.reopenWAL(newestWAL); err != nil {
			return nil, nil, err
		}
	} else if snap != nil {
		d.walEpoch = snap.Epoch
	}
	return snap, replayed, nil
}

func (d *Dir) reopenWAL(epoch int) error {
	if d.wal != nil {
		d.wal.Close()
		d.wal = nil
	}
	f, err := os.OpenFile(d.walName(epoch), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	d.wal, d.walEpoch = f, epoch
	return nil
}

// readSnapshot reads and parses one snapshot file.
func readSnapshot(name string) (*Snapshot, error) {
	b, err := os.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s, err := parseSnapshot(b)
	if err != nil {
		return nil, fmt.Errorf("store: snapshot %s: %w", name, err)
	}
	return s, nil
}

// parseSnapshot CRC-verifies and parses a snapshot's bytes. It accepts
// nothing whose CRC fails and sizes nothing by a count the bytes do not
// back: the model and ratings it returns are copies of disjoint parts of b.
func parseSnapshot(b []byte) (*Snapshot, error) {
	const fixed = len(snapMagic) + 4 + 8 + 8 + 4
	if len(b) < fixed+4 {
		return nil, fmt.Errorf("truncated (%d bytes)", len(b))
	}
	crcOff := len(b) - 4
	if got, want := crc32.ChecksumIEEE(b[:crcOff]), binary.LittleEndian.Uint32(b[crcOff:]); got != want {
		return nil, fmt.Errorf("CRC mismatch")
	}
	if string(b[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("bad magic")
	}
	off := len(snapMagic)
	if v := binary.LittleEndian.Uint32(b[off:]); v != 1 {
		return nil, fmt.Errorf("unknown version %d", v)
	}
	off += 4
	s := &Snapshot{}
	epoch := binary.LittleEndian.Uint64(b[off:])
	if epoch > math.MaxInt {
		return nil, fmt.Errorf("epoch %d out of range", epoch)
	}
	s.Epoch = int(epoch)
	off += 8
	s.RMSE = math.Float64frombits(binary.LittleEndian.Uint64(b[off:]))
	off += 8
	mlen := int(binary.LittleEndian.Uint32(b[off:]))
	off += 4
	if mlen < 0 || off+mlen > crcOff {
		return nil, fmt.Errorf("model length %d out of range", mlen)
	}
	s.Model = append([]byte(nil), b[off:off+mlen]...)
	off += mlen
	rs, n, err := dataset.DecodeRatings(b[off:crcOff])
	if err != nil {
		return nil, fmt.Errorf("ratings: %w", err)
	}
	if off+n != crcOff {
		return nil, fmt.Errorf("%d trailing bytes", crcOff-off-n)
	}
	s.Ratings = rs
	return s, nil
}

// readWAL reads and replays one log file.
func readWAL(name string) ([]dataset.Rating, error) {
	b, err := os.ReadFile(name)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return parseWAL(b), nil
}

// parseWAL returns the ratings of the longest prefix of b made of whole,
// CRC-valid records, each payload exactly one rating block. A torn or
// corrupt record ends the replay silently — that is the expected shape of
// a crash mid-append — but the records before it are kept.
func parseWAL(b []byte) []dataset.Rating {
	var out []dataset.Rating
	for off := 0; off < len(b); {
		if off+walRecordHd > len(b) {
			break // torn header
		}
		plen := int(binary.LittleEndian.Uint32(b[off:]))
		crc := binary.LittleEndian.Uint32(b[off+4:])
		off += walRecordHd
		if plen < 0 || off+plen > len(b) {
			break // torn payload
		}
		payload := b[off : off+plen]
		if crc32.ChecksumIEEE(payload) != crc {
			break // corrupt record; stop trusting the rest
		}
		rs, n, err := dataset.DecodeRatings(payload)
		if err != nil || n != plen {
			break
		}
		out = append(out, rs...)
		off += plen
	}
	return out
}

// syncDir fsyncs the directory so a rename is durable; best-effort (some
// filesystems reject directory fsync).
func (d *Dir) syncDir() {
	if f, err := os.Open(d.path); err == nil {
		f.Sync()
		f.Close()
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
