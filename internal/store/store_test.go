package store

import (
	"os"
	"path/filepath"
	"testing"

	"rex/internal/dataset"
	"rex/internal/mf"
)

func testRatings(n, base int) []dataset.Rating {
	rs := make([]dataset.Rating, n)
	for i := range rs {
		rs[i] = dataset.Rating{User: uint32(base + i), Item: uint32(i % 7), Value: float32(i%9)/2 + 0.5}
	}
	return rs
}

func trainedModel(t *testing.T) *mf.Model {
	t.Helper()
	m := mf.New(mf.DefaultConfig())
	// Touch a few embeddings so the serialization is non-trivial.
	for i := 0; i < 5; i++ {
		m.Predict(uint32(i), uint32(i))
	}
	return m
}

func TestSnapshotRoundtrip(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	m := trainedModel(t)
	want, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	ratings := testRatings(50, 0)
	if err := d.SaveSnapshot(7, 1.25, m, ratings); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(d.path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	snap, replayed, err := d2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil {
		t.Fatal("no snapshot loaded")
	}
	if snap.Epoch != 7 || snap.RMSE != 1.25 {
		t.Fatalf("snapshot meta %d/%v, want 7/1.25", snap.Epoch, snap.RMSE)
	}
	if string(snap.Model) != string(want) {
		t.Fatal("model bytes not bit-identical through snapshot")
	}
	if len(snap.Ratings) != len(ratings) || snap.Ratings[13] != ratings[13] {
		t.Fatalf("ratings mismatch: %d vs %d", len(snap.Ratings), len(ratings))
	}
	if len(replayed) != 0 {
		t.Fatalf("unexpected WAL replay of %d ratings", len(replayed))
	}
}

func TestEmptyDirLoadsFresh(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	snap, replayed, err := d.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap != nil || replayed != nil {
		t.Fatalf("fresh dir returned %+v / %d ratings", snap, len(replayed))
	}
}

func TestWALReplayAndRotation(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	m := trainedModel(t)

	if err := d.SaveSnapshot(2, 1.0, m, testRatings(10, 0)); err != nil {
		t.Fatal(err)
	}
	batch1, batch2 := testRatings(3, 1000), testRatings(4, 2000)
	if err := d.Append(batch1); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(batch2); err != nil {
		t.Fatal(err)
	}

	// "Crash" (no Close) and reload: snapshot + both batches, in order.
	d2, err := Open(d.path)
	if err != nil {
		t.Fatal(err)
	}
	snap, replayed, err := d2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 2 {
		t.Fatalf("epoch %d, want 2", snap.Epoch)
	}
	if len(replayed) != 7 {
		t.Fatalf("replayed %d ratings, want 7", len(replayed))
	}
	if replayed[0] != batch1[0] || replayed[3] != batch2[0] {
		t.Fatal("replay order broken")
	}

	// Appends after Load continue the same log.
	if err := d2.Append(testRatings(2, 3000)); err != nil {
		t.Fatal(err)
	}
	d2.Close()
	d3, err := Open(d.path)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	_, replayed, err = d3.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 9 {
		t.Fatalf("replayed %d ratings after continued appends, want 9", len(replayed))
	}

	// A new snapshot rotates the WAL, but the rotated-away log is retained
	// and still replayed: a rating logged just before the capture may not
	// have reached the captured store (engine mailbox lag), and replay is
	// idempotent (the node store dedups), so Load replays everything kept.
	if err := d3.SaveSnapshot(5, 0.9, m, testRatings(19, 0)); err != nil {
		t.Fatal(err)
	}
	d4, err := Open(d.path)
	if err != nil {
		t.Fatal(err)
	}
	defer d4.Close()
	snap, replayed, err = d4.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epoch != 5 || len(replayed) != 9 {
		t.Fatalf("after rotation: epoch %d, %d replayed, want 5 and the previous log's 9", snap.Epoch, len(replayed))
	}
}

// TestAckedRatingSurvivesSnapshotRotation pins the durability contract
// across the rotation boundary: a rating WAL-appended (and therefore
// 200-acknowledged) moments before SaveSnapshot lands in the log keyed at
// the *previous* epoch, while the snapshot's store — captured before the
// rating left the engine mailbox — does not contain it. kill -9 right
// after the save must still recover the rating on Load, even though its
// log is older than the chosen snapshot.
func TestAckedRatingSurvivesSnapshotRotation(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	m := trainedModel(t)
	if err := d.SaveSnapshot(2, 1.0, m, testRatings(10, 0)); err != nil {
		t.Fatal(err)
	}
	acked := dataset.Rating{User: 999_999, Item: 3, Value: 4.5}
	if err := d.Append([]dataset.Rating{acked}); err != nil {
		t.Fatal(err)
	}
	// The next snapshot was captured WITHOUT the acked rating (it was
	// still in the mailbox) and rotates the WAL to epoch 4.
	if err := d.SaveSnapshot(4, 0.9, m, testRatings(10, 0)); err != nil {
		t.Fatal(err)
	}

	// "kill -9": reopen without Close and load.
	d2, err := Open(d.path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	snap, replayed, err := d2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Epoch != 4 {
		t.Fatalf("loaded %+v, want the epoch-4 snapshot", snap)
	}
	for _, r := range snap.Ratings {
		if r == acked {
			t.Fatal("test premise broken: snapshot already holds the rating")
		}
	}
	found := false
	for _, r := range replayed {
		if r == acked {
			found = true
		}
	}
	if !found {
		t.Fatalf("acknowledged rating lost across rotation: %d replayed, none match %+v", len(replayed), acked)
	}
}

// TestFirstGenerationLogSurvivesFirstSnapshot pins the same contract at the
// start of a node's life, where the rating sits in the epoch-0 log: the
// first snapshot has no older one beside it, and pruning must not take that
// for "everything before it is obsolete". The log goes only once two newer
// snapshots exist.
func TestFirstGenerationLogSurvivesFirstSnapshot(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	m := trainedModel(t)
	acked := dataset.Rating{User: 999_999, Item: 3, Value: 4.5}
	if err := d.Append([]dataset.Rating{acked}); err != nil { // no snapshot yet: wal-0
		t.Fatal(err)
	}
	// The first snapshot was captured while the rating was in the mailbox.
	if err := d.SaveSnapshot(1, 1.0, m, testRatings(10, 0)); err != nil {
		t.Fatal(err)
	}
	load := func() (*Snapshot, []dataset.Rating) { // "kill -9": reopen without Close
		t.Helper()
		d2, err := Open(d.path)
		if err != nil {
			t.Fatal(err)
		}
		defer d2.Close()
		snap, replayed, err := d2.Load()
		if err != nil {
			t.Fatal(err)
		}
		return snap, replayed
	}
	snap, replayed := load()
	if snap == nil || snap.Epoch != 1 {
		t.Fatalf("loaded %+v, want the epoch-1 snapshot", snap)
	}
	if len(replayed) != 1 || replayed[0] != acked {
		t.Fatalf("acknowledged rating lost at the first snapshot: replayed %+v", replayed)
	}
	// Two snapshots later the store that holds the rating is on disk and
	// the log may go.
	withAcked := append(testRatings(10, 0), acked)
	for _, ep := range []int{2, 3} {
		if err := d.SaveSnapshot(ep, 1.0, m, withAcked); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(d.walName(0)); !os.IsNotExist(err) {
		t.Fatalf("wal-0 still present after two newer snapshots (stat: %v)", err)
	}
	if _, replayed = load(); len(replayed) != 0 {
		t.Fatalf("replayed %+v from logs that hold nothing", replayed)
	}
}

func TestCorruptNewestSnapshotFallsBack(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	m := trainedModel(t)
	if err := d.SaveSnapshot(3, 1.1, m, testRatings(5, 0)); err != nil {
		t.Fatal(err)
	}
	// Ratings logged against snapshot 3, before snapshot 6 lands: the
	// fallback path must still replay them.
	if err := d.Append(testRatings(2, 500)); err != nil {
		t.Fatal(err)
	}
	if err := d.SaveSnapshot(6, 1.0, m, testRatings(9, 0)); err != nil {
		t.Fatal(err)
	}

	// Corrupt the newest snapshot (flip one byte mid-file).
	name := filepath.Join(d.path, "snap-0000000000000006.rex")
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0xFF
	if err := os.WriteFile(name, b, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(d.path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	snap, replayed, err := d2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.Epoch != 3 {
		t.Fatalf("fallback loaded %+v, want epoch 3", snap)
	}
	if len(replayed) != 2 {
		t.Fatalf("fallback replayed %d ratings, want the 2 logged after epoch 3", len(replayed))
	}
}

func TestTornWALTailDropped(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	m := trainedModel(t)
	if err := d.SaveSnapshot(1, 1.0, m, testRatings(4, 0)); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(testRatings(3, 100)); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(testRatings(3, 200)); err != nil {
		t.Fatal(err)
	}
	d.Close()

	// Tear the last record: chop bytes off the log tail.
	name := filepath.Join(d.path, "wal-0000000000000001.rex")
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(name, b[:len(b)-5], 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(d.path)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	_, replayed, err := d2.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 3 {
		t.Fatalf("replayed %d ratings from torn log, want first record's 3", len(replayed))
	}
}

func TestPruneKeepsTwoSnapshots(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	m := trainedModel(t)
	for _, ep := range []int{1, 2, 3, 4} {
		if err := d.SaveSnapshot(ep, 1.0, m, testRatings(3, 0)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(d.path)
	if err != nil {
		t.Fatal(err)
	}
	var snaps, wals int
	for _, e := range entries {
		if _, ok := parseEpoch(e.Name(), snapPrefix); ok {
			snaps++
		}
		if _, ok := parseEpoch(e.Name(), walPrefix); ok {
			wals++
		}
	}
	if snaps != 2 {
		t.Fatalf("%d snapshots kept, want 2", snaps)
	}
	if wals != 2 {
		t.Fatalf("%d WALs kept, want 2", wals)
	}
}
