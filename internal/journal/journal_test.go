package journal

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func mustAppend(t *testing.T, j *Journal, kind, data string) Entry {
	t.Helper()
	e, err := j.Append(kind, json.RawMessage(data))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestJournalRoundTrip pins the replay contract: every acknowledged append
// comes back from Open, in order, with its sequence number, kind, and
// payload intact, across multiple close/reopen cycles.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.jsonl")
	j, entries, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 || j.NextSeq() != 1 {
		t.Fatalf("fresh journal: %d entries, next seq %d", len(entries), j.NextSeq())
	}
	mustAppend(t, j, "delta", `{"upserts":[{"eNodeB":3}]}`)
	mustAppend(t, j, "delta", `{"tombstones":[7]}`)
	if j.Entries() != 2 || j.Size() == 0 {
		t.Fatalf("Entries() = %d, Size() = %d", j.Entries(), j.Size())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j, entries, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(entries) != 2 {
		t.Fatalf("replayed %d entries, want 2", len(entries))
	}
	for i, e := range entries {
		if e.Seq != int64(i+1) || e.Kind != "delta" || e.Time.IsZero() {
			t.Fatalf("entry %d: %+v", i, e)
		}
	}
	if string(entries[1].Data) != `{"tombstones":[7]}` {
		t.Fatalf("entry 1 data: %s", entries[1].Data)
	}
	// Appends continue the sequence after replay.
	if e := mustAppend(t, j, "delta", `{}`); e.Seq != 3 {
		t.Fatalf("post-replay seq = %d, want 3", e.Seq)
	}
}

// TestJournalCrashTail simulates a crash mid-append: a partial JSON line at
// the end of the file. Open must keep every complete entry, truncate the
// tail from disk, and leave the journal appendable.
func TestJournalCrashTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.jsonl")
	j, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, "delta", `{"upserts":[]}`)
	mustAppend(t, j, "delta", `{"tombstones":[1]}`)
	j.Close()
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"seq":3,"ts":"2026-08-08T00:00:00Z","kind":"del`) // torn write
	f.Close()

	j, entries, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(entries) != 2 {
		t.Fatalf("replayed %d entries, want 2", len(entries))
	}
	if j.Dropped() == 0 {
		t.Fatal("Dropped() = 0, want the torn bytes reported")
	}
	if e := mustAppend(t, j, "delta", `{}`); e.Seq != 3 {
		t.Fatalf("seq after truncation = %d, want 3", e.Seq)
	}
	// The truncation is durable: a further reopen sees three clean entries.
	j.Close()
	j, entries, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	if len(entries) != 3 || j.Dropped() != 0 {
		t.Fatalf("after clean reopen: %d entries, dropped %d", len(entries), j.Dropped())
	}
}

// TestJournalMidFileCorruption: garbage followed by valid entries is not a
// crash tail — replaying past it would silently skip history, so Open must
// refuse.
func TestJournalMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.jsonl")
	good := `{"seq":1,"ts":"2026-08-08T00:00:00Z","kind":"delta","data":{}}` + "\n"
	bad := "not json\n"
	tail := `{"seq":2,"ts":"2026-08-08T00:00:01Z","kind":"delta","data":{}}` + "\n"
	if err := os.WriteFile(path, []byte(good+bad+tail), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); err == nil || !strings.Contains(err.Error(), "refusing to skip") {
		t.Fatalf("err = %v, want mid-file corruption refusal", err)
	}
}

// TestJournalSequenceGap: a well-formed entry whose sequence number jumps
// means a lost line, not a torn one — also a refusal.
func TestJournalSequenceGap(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.jsonl")
	lines := `{"seq":1,"ts":"2026-08-08T00:00:00Z","kind":"delta","data":{}}` + "\n" +
		`{"seq":3,"ts":"2026-08-08T00:00:01Z","kind":"delta","data":{}}` + "\n"
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(path); err == nil || !strings.Contains(err.Error(), "sequence gap") {
		t.Fatalf("err = %v, want sequence gap", err)
	}
}

// TestJournalSeedSeq: seeding raises the next sequence number but never
// lowers it — the post-compaction restart contract, where an empty journal
// must continue past the snapshot's fence rather than restart at 1.
func TestJournalSeedSeq(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.jsonl")
	j, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	j.SeedSeq(8) // fence 7: first post-restart append must be seq 8
	if e := mustAppend(t, j, "delta", `{}`); e.Seq != 8 {
		t.Fatalf("seeded seq = %d, want 8", e.Seq)
	}
	j.SeedSeq(3) // stale seed never rewinds
	if e := mustAppend(t, j, "delta", `{}`); e.Seq != 9 {
		t.Fatalf("seq after stale seed = %d, want 9", e.Seq)
	}
}

// TestJournalTornAppendRollback: a failed partial write (the ENOSPC shape)
// rolls the file back to the last acknowledged entry, so later appends and
// reopens see a clean journal — not a torn line buried under valid
// entries, which Open refuses to replay.
func TestJournalTornAppendRollback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.jsonl")
	j, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	mustAppend(t, j, "delta", `{"a":1}`)

	boom := errors.New("no space left on device")
	j.writeFn = func(p []byte) (int, error) {
		n, _ := j.f.Write(p[:len(p)/2]) // half the line lands, then the disk fills
		return n, boom
	}
	if _, err := j.Append("delta", json.RawMessage(`{"b":2}`)); !errors.Is(err, boom) {
		t.Fatalf("torn append error = %v, want wrapped %v", err, boom)
	}
	j.writeFn = nil

	// The rollback healed the file: the next append is acknowledged with
	// the sequence the torn one failed to claim.
	if e := mustAppend(t, j, "delta", `{"c":3}`); e.Seq != 2 {
		t.Fatalf("seq after rollback = %d, want 2", e.Seq)
	}
	j.Close()
	j2, entries, err := Open(path)
	if err != nil {
		t.Fatalf("reopen after rollback: %v", err)
	}
	defer j2.Close()
	if len(entries) != 2 || j2.Dropped() != 0 {
		t.Fatalf("reopen: %d entries, %d dropped bytes; want 2 clean entries", len(entries), j2.Dropped())
	}
}

// TestJournalRefusesOversizedEntry: an entry whose line Open could not read
// back is refused with nothing written, so one oversized mutation cannot
// make the whole journal unreplayable. JSON escaping makes the line longer
// than the payload handed in (each '<' becomes \u003c), and the check is
// on the line as written. A payload of exactly MaxData bytes still fits.
func TestJournalRefusesOversizedEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.jsonl")
	j, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	mustAppend(t, j, "delta", `{"a":1}`)
	size := j.Size()

	escaped := `"` + strings.Repeat("<", maxLine/6+1) + `"` // under maxLine raw, over it escaped
	if _, err := j.Append("delta", json.RawMessage(escaped)); err == nil {
		t.Fatal("oversized entry was journaled")
	}
	if j.Size() != size || j.NextSeq() != 2 {
		t.Fatalf("refused append changed the journal: size %d -> %d, next seq %d", size, j.Size(), j.NextSeq())
	}
	largest := `"` + strings.Repeat("a", MaxData-2) + `"`
	mustAppend(t, j, "delta", largest)
	mustAppend(t, j, "delta", `{"c":3}`)
	j.Close()

	j, entries, err := Open(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if len(entries) != 3 || j.Dropped() != 0 {
		t.Fatalf("reopen: %d entries, %d dropped bytes; want 3 clean entries", len(entries), j.Dropped())
	}
	for i, e := range entries {
		if e.Seq != int64(i+1) {
			t.Fatalf("entry %d has seq %d", i, e.Seq)
		}
	}
	if len(entries[1].Data) != MaxData {
		t.Fatalf("largest payload replayed as %d bytes, want %d", len(entries[1].Data), MaxData)
	}
}

// TestJournalPoisonedOnFailedRollback: when the rollback itself fails the
// journal refuses further appends — writing valid entries after a torn
// line would make every future replay fail.
func TestJournalPoisonedOnFailedRollback(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.jsonl")
	j, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, j, "delta", `{}`)
	j.f.Close() // yank the fd: the write fails and so does the truncate
	if _, err := j.Append("delta", json.RawMessage(`{}`)); err == nil {
		t.Fatal("append on a dead fd succeeded")
	}
	if _, err := j.Append("delta", json.RawMessage(`{}`)); err == nil || !strings.Contains(err.Error(), "refusing further appends") {
		t.Fatalf("poisoned append error = %v, want refusal", err)
	}
}

// TestJournalReset pins compaction semantics: the file empties, the entry
// count and size go to zero, but sequence numbers keep counting.
func TestJournalReset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "deltas.jsonl")
	j, _, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	mustAppend(t, j, "delta", `{}`)
	mustAppend(t, j, "delta", `{}`)
	if err := j.Reset(); err != nil {
		t.Fatal(err)
	}
	if j.Size() != 0 || j.Entries() != 0 {
		t.Fatalf("after reset: size %d, entries %d", j.Size(), j.Entries())
	}
	if e := mustAppend(t, j, "delta", `{}`); e.Seq != 3 {
		t.Fatalf("seq after reset = %d, want 3", e.Seq)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if j.Size() != st.Size() {
		t.Fatalf("tracked size %d != file size %d", j.Size(), st.Size())
	}

	// Reopen after a reset: the file starts at seq 3, which Open takes at
	// face value (the fold fence lives in the snapshot, not here).
	j.Close()
	j, entries, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if len(entries) != 1 || entries[0].Seq != 3 {
		t.Fatalf("reopen after reset: %+v", entries)
	}
	if e := mustAppend(t, j, "delta", `{}`); e.Seq != 4 {
		t.Fatalf("seq after reopen = %d, want 4", e.Seq)
	}
}

// entryLine renders one well-formed journal line.
func entryLine(seq int, data string) string {
	return fmt.Sprintf(`{"seq":%d,"ts":"2026-08-08T00:00:0%dZ","kind":"delta","data":%s}`+"\n", seq, seq%10, data)
}

// FuzzJournalReplay feeds arbitrary bytes to Open as a journal file. Open
// must never panic, and whenever it accepts a file the journal must stay
// appendable: one Append and a reopen return the entries Open replayed
// plus the new one, with contiguous sequence numbers and nothing dropped.
func FuzzJournalReplay(f *testing.F) {
	valid := entryLine(1, `{}`) + entryLine(2, `{"tombstones":[7]}`)
	f.Add([]byte(valid))
	f.Add([]byte(valid + `{"seq":3,"ts":"2026-08-08T00:00:00Z","kind":"del`)) // torn tail
	f.Add([]byte(entryLine(1, `{}`) + "not json\n" + entryLine(2, `{}`)))     // mid-history corruption
	f.Add([]byte(strings.ReplaceAll(valid, "\n", "\r\n")))                    // CRLF line ends
	f.Add([]byte(strings.TrimSuffix(valid, "\n")))                            // unterminated last entry
	f.Fuzz(func(t *testing.T, file []byte) {
		path := filepath.Join(t.TempDir(), "deltas.jsonl")
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		j, before, err := Open(path)
		if err != nil {
			return // refusing a corrupt history is allowed; panicking is not
		}
		added, err := j.Append("delta", json.RawMessage(`{"tombstones":[1]}`))
		j.Close()
		if err != nil {
			t.Fatalf("append after a successful open: %v", err)
		}
		j, after, err := Open(path)
		if err != nil {
			t.Fatalf("reopen after append: %v", err)
		}
		j.Close()
		if j.Dropped() != 0 {
			t.Fatalf("reopen dropped %d bytes of a journal this package wrote", j.Dropped())
		}
		want := append(before, added)
		if len(after) != len(want) {
			t.Fatalf("reopen replayed %d entries, want %d", len(after), len(want))
		}
		for i, w := range want {
			g := after[i]
			if g.Seq != w.Seq || g.Kind != w.Kind || !g.Time.Equal(w.Time) || !bytes.Equal(g.Data, w.Data) {
				t.Fatalf("entry %d: got %+v, want %+v", i, g, w)
			}
			if i > 0 && g.Seq != after[i-1].Seq+1 {
				t.Fatalf("entry %d: seq %d after %d", i, g.Seq, after[i-1].Seq)
			}
		}
	})
}
