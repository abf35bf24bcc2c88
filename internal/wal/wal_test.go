package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"sqpr/internal/wal"
	"sqpr/internal/wal/walfault"
)

func mustOpen(t *testing.T, fs wal.FS, opts wal.Options) (*wal.Log, wal.Recovered) {
	t.Helper()
	l, rec, err := wal.Open(fs, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

func appendN(t *testing.T, l *wal.Log, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		seq := l.LastSeq() + 1
		got, err := l.Append([]byte(fmt.Sprintf("record-%d", seq)))
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if got != seq {
			t.Fatalf("Append returned seq %d, want %d", got, seq)
		}
	}
}

// checkRecovered validates internal consistency of a recovered image:
// snapshot payload matches its seq, entries are contiguous after it, and
// every payload matches its sequence number.
func checkRecovered(t *testing.T, rec wal.Recovered) {
	t.Helper()
	if rec.Snapshot != nil {
		want := fmt.Sprintf("state-%d", rec.SnapshotSeq)
		if string(rec.Snapshot) != want {
			t.Fatalf("snapshot payload %q, want %q", rec.Snapshot, want)
		}
	} else if rec.SnapshotSeq != 0 {
		t.Fatalf("nil snapshot with seq %d", rec.SnapshotSeq)
	}
	seq := rec.SnapshotSeq
	for _, e := range rec.Entries {
		if e.Seq != seq+1 {
			t.Fatalf("entry seq %d after %d", e.Seq, seq)
		}
		if want := fmt.Sprintf("record-%d", e.Seq); string(e.Data) != want {
			t.Fatalf("entry %d payload %q, want %q", e.Seq, e.Data, want)
		}
		seq = e.Seq
	}
}

func TestRoundTripDirFS(t *testing.T) {
	fs, err := wal.DirFS(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	l, rec := mustOpen(t, fs, wal.Options{})
	if rec.Snapshot != nil || len(rec.Entries) != 0 {
		t.Fatalf("fresh log recovered %+v", rec)
	}
	appendN(t, l, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, rec = mustOpen(t, fs, wal.Options{})
	checkRecovered(t, rec)
	if len(rec.Entries) != 10 || l.LastSeq() != 10 {
		t.Fatalf("recovered %d entries, lastSeq %d", len(rec.Entries), l.LastSeq())
	}
	appendN(t, l, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec = mustOpen(t, fs, wal.Options{})
	checkRecovered(t, rec)
	if len(rec.Entries) != 15 {
		t.Fatalf("recovered %d entries after second run, want 15", len(rec.Entries))
	}
}

func TestRotationAndCompaction(t *testing.T) {
	fs := walfault.New()
	// Tiny segments force a rotation roughly every record.
	l, _ := mustOpen(t, fs, wal.Options{SegmentBytes: 24})
	appendN(t, l, 20)
	if l.Stats().Rotations < 5 {
		t.Fatalf("expected many rotations, got %d", l.Stats().Rotations)
	}
	if err := l.WriteSnapshot([]byte(fmt.Sprintf("state-%d", l.LastSeq()))); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	if l.Stats().CompactedSegments == 0 {
		t.Fatal("snapshot compacted no segments")
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	segs := 0
	for _, n := range names {
		if strings.HasSuffix(n, ".seg") {
			segs++
		}
	}
	if segs > 2 {
		t.Fatalf("%d segments survive compaction: %v", segs, names)
	}
	appendN(t, l, 7)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, rec := mustOpen(t, fs, wal.Options{SegmentBytes: 24})
	checkRecovered(t, rec)
	if rec.SnapshotSeq != 20 || len(rec.Entries) != 7 || l2.LastSeq() != 27 {
		t.Fatalf("recovered snap %d + %d entries, lastSeq %d; want 20 + 7, 27",
			rec.SnapshotSeq, len(rec.Entries), l2.LastSeq())
	}
}

func TestTornTailTruncated(t *testing.T) {
	fs := walfault.New()
	l, _ := mustOpen(t, fs, wal.Options{})
	appendN(t, l, 5)
	// Crash mid-append with a few unsynced bytes surviving: the reopened
	// image ends in a partial frame.
	fs.SetTear(7)
	fs.CrashAt(wal.CrashAppendAfterFrame, 1)
	if _, err := l.Append([]byte("record-6")); err == nil {
		t.Fatal("append across crash succeeded")
	}

	img := fs.Reopen()
	l2, rec := mustOpen(t, img, wal.Options{})
	checkRecovered(t, rec)
	if rec.TailTruncated == 0 {
		t.Fatal("no torn tail detected")
	}
	if len(rec.Entries) != 5 || l2.LastSeq() != 5 {
		t.Fatalf("recovered %d entries, lastSeq %d; want 5, 5", len(rec.Entries), l2.LastSeq())
	}
	// The torn tail must be physically gone so a second recovery is clean.
	appendN(t, l2, 3)
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec = mustOpen(t, img, wal.Options{})
	if rec.TailTruncated != 0 {
		t.Fatalf("torn tail re-detected after truncation: %d bytes", rec.TailTruncated)
	}
}

func TestTailCorruptionTruncated(t *testing.T) {
	fs := walfault.New()
	l, _ := mustOpen(t, fs, wal.Options{})
	appendN(t, l, 5)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.List()
	if len(names) != 1 {
		t.Fatalf("want 1 segment, have %v", names)
	}
	size, _ := fs.Size(names[0])
	// Flip a bit inside the last record's payload.
	if err := fs.Corrupt(names[0], size-2); err != nil {
		t.Fatal(err)
	}
	l2, rec := mustOpen(t, fs, wal.Options{})
	checkRecovered(t, rec)
	if len(rec.Entries) != 4 || rec.TailTruncated == 0 {
		t.Fatalf("recovered %d entries, truncated %d; want 4 entries, >0 truncated",
			len(rec.Entries), rec.TailTruncated)
	}
	if l2.LastSeq() != 4 {
		t.Fatalf("lastSeq %d, want 4", l2.LastSeq())
	}
}

func TestMidLogCorruptionRefusesOpen(t *testing.T) {
	fs := walfault.New()
	l, _ := mustOpen(t, fs, wal.Options{SegmentBytes: 24})
	appendN(t, l, 10) // several segments
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.List()
	var first string
	for _, n := range names {
		if strings.HasSuffix(n, ".seg") {
			first = n
			break
		}
	}
	if err := fs.Corrupt(first, 5); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wal.Open(fs, wal.Options{SegmentBytes: 24}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("open over mid-log corruption: %v, want ErrCorrupt", err)
	}
}

func TestMissingSegmentRefusesOpen(t *testing.T) {
	fs := walfault.New()
	l, _ := mustOpen(t, fs, wal.Options{SegmentBytes: 24})
	appendN(t, l, 10)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, _ := fs.List()
	var segs []string
	for _, n := range names {
		if strings.HasSuffix(n, ".seg") {
			segs = append(segs, n)
		}
	}
	if len(segs) < 3 {
		t.Fatalf("want >=3 segments, have %v", segs)
	}
	if err := fs.Remove(segs[1]); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := wal.Open(fs, wal.Options{SegmentBytes: 24}); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("open with missing segment: %v, want ErrCorrupt", err)
	}
}

func TestSnapshotCrashFallsBackToPrevious(t *testing.T) {
	fs := walfault.New()
	l, _ := mustOpen(t, fs, wal.Options{})
	appendN(t, l, 4)
	if err := l.WriteSnapshot([]byte("state-4")); err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 4)
	// Crash before the new snapshot is synced: its file content is lost,
	// and recovery must fall back to snapshot 4 plus the logged records.
	fs.CrashAt(wal.CrashSnapshotAfterWrite, 1)
	if err := l.WriteSnapshot([]byte("state-8")); err == nil {
		t.Fatal("snapshot across crash succeeded")
	}
	l2, rec := mustOpen(t, fs.Reopen(), wal.Options{})
	checkRecovered(t, rec)
	if rec.SnapshotSeq != 4 || len(rec.Entries) != 4 || l2.LastSeq() != 8 {
		t.Fatalf("recovered snap %d + %d entries, lastSeq %d; want 4 + 4, 8",
			rec.SnapshotSeq, len(rec.Entries), l2.LastSeq())
	}
}

func TestSyncPolicies(t *testing.T) {
	t.Run("never-loses-unsynced", func(t *testing.T) {
		fs := walfault.New()
		l, _ := mustOpen(t, fs, wal.Options{Sync: wal.SyncNever})
		appendN(t, l, 5)
		// Kill without a sync: everything since segment creation is lost.
		_, rec := mustOpen(t, fs.Reopen(), wal.Options{Sync: wal.SyncNever})
		if len(rec.Entries) != 0 {
			t.Fatalf("unsynced records survived: %d", len(rec.Entries))
		}
	})
	t.Run("manual-sync-preserves", func(t *testing.T) {
		fs := walfault.New()
		l, _ := mustOpen(t, fs, wal.Options{Sync: wal.SyncNever})
		appendN(t, l, 5)
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		appendN(t, l, 2)
		_, rec := mustOpen(t, fs.Reopen(), wal.Options{Sync: wal.SyncNever})
		checkRecovered(t, rec)
		if len(rec.Entries) != 5 {
			t.Fatalf("recovered %d entries, want the 5 synced ones", len(rec.Entries))
		}
	})
	t.Run("every-bounds-loss", func(t *testing.T) {
		fs := walfault.New()
		l, _ := mustOpen(t, fs, wal.Options{Sync: wal.SyncEvery, SyncRecords: 3})
		appendN(t, l, 8) // syncs after 3 and 6
		_, rec := mustOpen(t, fs.Reopen(), wal.Options{})
		checkRecovered(t, rec)
		if len(rec.Entries) != 6 {
			t.Fatalf("recovered %d entries, want 6 (two sync batches)", len(rec.Entries))
		}
	})
	t.Run("rotation-syncs-regardless", func(t *testing.T) {
		fs := walfault.New()
		l, _ := mustOpen(t, fs, wal.Options{Sync: wal.SyncNever, SegmentBytes: 24})
		appendN(t, l, 10) // every rotation syncs the outgoing segment
		_, rec := mustOpen(t, fs.Reopen(), wal.Options{SegmentBytes: 24})
		checkRecovered(t, rec)
		if len(rec.Entries) < 8 {
			t.Fatalf("recovered %d entries; rotation should have synced all but the active segment", len(rec.Entries))
		}
	})
}

func TestWedgedAfterWriteError(t *testing.T) {
	fs := walfault.New()
	l, _ := mustOpen(t, fs, wal.Options{})
	appendN(t, l, 2)
	fs.CrashAt(wal.CrashAppendBeforeFrame, 1)
	if _, err := l.Append([]byte("x")); err == nil {
		t.Fatal("append across crash succeeded")
	}
	// Every later write must fail fast with the sticky error.
	if _, err := l.Append([]byte("y")); err == nil {
		t.Fatal("append on wedged log succeeded")
	}
	if err := l.WriteSnapshot([]byte("s")); err == nil {
		t.Fatal("snapshot on wedged log succeeded")
	}
}

func TestClosedLogRefusesWrites(t *testing.T) {
	fs := walfault.New()
	l, _ := mustOpen(t, fs, wal.Options{})
	appendN(t, l, 1)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("x")); !errors.Is(err, wal.ErrClosed) {
		t.Fatalf("append on closed log: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// fuzzOpts rotates after two records, so fuzzImage spreads its log over
// two segments.
var fuzzOpts = wal.Options{SegmentBytes: 40}

// fuzzImage writes a real log: snapshot 3, then wal-3 holding records 3 (folded
// into the snapshot) and 4, and wal-5 holding records 5 and 6. It returns the
// image and its file names in sorted order.
func fuzzImage(t testing.TB) (*walfault.FS, []string) {
	fs := walfault.New()
	l, _, err := wal.Open(fs, fuzzOpts)
	if err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 6; seq++ {
		if _, err := l.Append(fmt.Appendf(nil, "record-%d", seq)); err != nil {
			t.Fatal(err)
		}
		if seq == 3 {
			if err := l.WriteSnapshot([]byte("state-3")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	return fs, names
}

// FuzzWALRecover is the log's byte boundary: whatever bytes one file of a
// real log holds, Open must not panic, and must either fail with ErrCorrupt
// or recover records contiguous from the snapshot. A log it recovers must
// take an append and hand back the same records plus the new one on the next
// Open.
func FuzzWALRecover(f *testing.F) {
	fs, names := fuzzImage(f)
	if len(names) != 3 {
		f.Fatalf("seed image holds %v, want one snapshot and two segments", names)
	}
	for i, name := range names {
		data, err := fs.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(i), data)
		f.Add(uint8(i), data[:len(data)-3])
		f.Add(uint8(i), []byte{})
		flipped := slices.Clone(data)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(uint8(i), flipped)
	}
	f.Fuzz(func(t *testing.T, file uint8, data []byte) {
		fs, names := fuzzImage(t)
		name := names[int(file)%len(names)]
		w, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(data); err != nil {
			t.Fatal(err)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if err := fs.SyncDir(); err != nil {
			t.Fatal(err)
		}

		l, rec, err := wal.Open(fs, fuzzOpts)
		if err != nil {
			if !errors.Is(err, wal.ErrCorrupt) {
				t.Fatalf("%s replaced: Open failed with %v, want ErrCorrupt", name, err)
			}
			return
		}
		for i, e := range rec.Entries {
			if want := rec.SnapshotSeq + 1 + uint64(i); e.Seq != want {
				t.Fatalf("%s replaced: entry %d has seq %d, want %d", name, i, e.Seq, want)
			}
		}
		next := rec.SnapshotSeq + uint64(len(rec.Entries)) + 1
		if l.LastSeq() != next-1 {
			t.Fatalf("%s replaced: LastSeq %d, want %d", name, l.LastSeq(), next-1)
		}
		payload := fmt.Appendf(nil, "record-%d", next)
		if seq, err := l.Append(payload); err != nil || seq != next {
			t.Fatalf("%s replaced: Append returned (%d, %v), want (%d, nil)", name, seq, err, next)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}

		_, again, err := wal.Open(fs, fuzzOpts)
		if err != nil {
			t.Fatalf("%s replaced: reopening after an append: %v", name, err)
		}
		want := append(slices.Clone(rec.Entries), wal.Entry{Seq: next, Data: payload})
		sameEntry := func(a, b wal.Entry) bool { return a.Seq == b.Seq && bytes.Equal(a.Data, b.Data) }
		if again.SnapshotSeq != rec.SnapshotSeq || !bytes.Equal(again.Snapshot, rec.Snapshot) ||
			!slices.EqualFunc(again.Entries, want, sameEntry) {
			t.Fatalf("%s replaced: reopened snapshot %d with %d entries, want snapshot %d with %d",
				name, again.SnapshotSeq, len(again.Entries), rec.SnapshotSeq, len(want))
		}
	})
}
