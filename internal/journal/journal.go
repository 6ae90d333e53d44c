// Package journal is the durability half of live carrier ingest: an
// append-only, sequence-numbered JSONL delta journal. Every mutation auricd
// accepts (carrier upsert, tombstone) is appended here *before* it is
// acknowledged, so a crash between two snapshots loses nothing — on
// startup the server replays the journal over the last snapshot and
// arrives at the exact serving state it went down with. Compaction (see
// cmd/auricd) folds the journal into a fresh snapshot and resets it, which
// bounds both replay time and disk footprint.
//
// Entries are single JSON lines with strictly increasing sequence numbers,
// so the journal is greppable and jq-able like the audit log, and replay
// order is self-evidencing. Sequence numbers survive compaction: Reset
// empties the file but the count continues, so a journal legitimately
// starts past 1 — whether its first entry lines up with the folded history
// is checked by the caller against the snapshot's recorded fence. An empty
// file carries no record of how far the sequence had counted, so after a
// compaction-then-restart the caller must SeedSeq the reopened journal
// from the fence, or new entries would reuse already-folded numbers.
// Open tolerates exactly one failure shape: a
// corrupt or partial tail with no valid entries after it — the footprint
// of a crash mid-append, including a last line missing its newline —
// which it truncates away and reports. A corrupt line with valid entries
// after it is data loss in the middle of the history and is returned as
// an error instead of being silently skipped.
package journal

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Entry is one journaled mutation. Seq is assigned by Append and strictly
// increases within a file; Kind names the mutation and Data carries its
// payload verbatim (the journal does not interpret it — cmd/auricd stores
// its HTTP wire format and replays by decoding Data).
type Entry struct {
	Seq  int64           `json:"seq"`
	Time time.Time       `json:"ts"`
	Kind string          `json:"kind"`
	Data json.RawMessage `json:"data"`
}

// Journal is an append-only JSONL delta journal. Append is safe for
// concurrent use.
type Journal struct {
	mu      sync.Mutex
	f       *os.File
	size    int64
	entries int
	nextSeq int64
	dropped int64
	broken  error // set when a torn append could not be rolled back; poisons further Appends

	writeFn func([]byte) (int, error) // test seam: overrides j.f.Write when non-nil
}

// MaxData is the largest entry payload, in bytes as json.Marshal writes
// it (compact, with <, > and & escaped), that Append always accepts for a
// short kind such as "delta".
// Callers that must journal a mutation before acknowledging it check the
// encoded payload against MaxData before applying the mutation.
const MaxData = maxLine - envelopeBytes

const (
	// maxLine bounds one journal line, newline included: Open reads
	// nothing longer, so Append writes nothing longer either.
	maxLine = 16 << 20
	// envelopeBytes is the room a line keeps around its payload for the
	// entry's sequence number, timestamp and kind.
	envelopeBytes = 4 << 10
)

// Open opens or creates the journal at path and returns every valid entry
// in order, for replay. A corrupt tail left by a crash mid-append is
// truncated from the file (Dropped reports how many bytes); corruption
// followed by further valid entries is an error.
func Open(path string) (*Journal, []Entry, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("journal: open: %w", err)
	}
	j := &Journal{f: f, nextSeq: 1}

	var (
		entries []Entry
		good    int64 // byte offset just past the last valid line
		badAt   int64 = -1
		offset  int64
	)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64<<10), maxLine)
	sc.Split(scanLine)
	for sc.Scan() {
		line := sc.Bytes()
		lineLen := int64(len(line))
		var e Entry
		// A line without its newline is a torn append even when its JSON
		// parses: appending after it would glue the next entry onto it.
		if line[len(line)-1] != '\n' || json.Unmarshal(line, &e) != nil {
			if badAt < 0 {
				badAt = offset // candidate crash tail; confirmed if nothing valid follows
			}
			offset += lineLen
			continue
		}
		if badAt >= 0 {
			f.Close()
			return nil, nil, fmt.Errorf("journal: %s: corrupt entry at byte %d followed by valid entry seq %d — refusing to skip history", path, badAt, e.Seq)
		}
		if len(entries) == 0 {
			// The first entry's sequence is taken at face value: a
			// compaction resets the file while the sequence keeps
			// counting, so a journal legitimately starts past 1. Whether
			// the start lines up with folded history is the caller's
			// check, against the snapshot's fence.
			if e.Seq < 1 {
				f.Close()
				return nil, nil, fmt.Errorf("journal: %s: first entry has sequence %d, want >= 1", path, e.Seq)
			}
			j.nextSeq = e.Seq
		}
		if e.Seq != j.nextSeq {
			f.Close()
			return nil, nil, fmt.Errorf("journal: %s: sequence gap: entry seq %d where %d was expected", path, e.Seq, j.nextSeq)
		}
		entries = append(entries, e)
		j.nextSeq = e.Seq + 1
		offset += lineLen
		good = offset
	}
	if err := sc.Err(); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: scan: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: stat: %w", err)
	}
	if st.Size() > good { // partial or corrupt tail: crash footprint, drop it
		if err := f.Truncate(good); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("journal: truncate corrupt tail: %w", err)
		}
		j.dropped = st.Size() - good
	}
	if _, err := f.Seek(good, 0); err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("journal: seek: %w", err)
	}
	j.size = good
	j.entries = len(entries)
	return j, entries, nil
}

// scanLine splits the journal into lines that keep their newline, so a
// line's length is exactly the bytes it spans on disk; bufio.ScanLines
// would also strip a carriage return and end an unterminated last line as
// if it were complete, and either would misplace the truncation offset.
func scanLine(data []byte, atEOF bool) (int, []byte, error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i+1], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// Dropped reports the corrupt-tail bytes Open truncated, if any.
func (j *Journal) Dropped() int64 { return j.dropped }

// Size returns the current journal size in bytes.
func (j *Journal) Size() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.size
}

// Entries returns the number of entries in the journal — the replay lag a
// restart would pay, and the operand of the compaction threshold.
func (j *Journal) Entries() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.entries
}

// NextSeq returns the sequence number the next Append will assign.
func (j *Journal) NextSeq() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.nextSeq
}

// SeedSeq raises the next sequence number to at least n; it never lowers
// it. The owner of the compaction fence calls this after reopening the
// journal: Reset empties the file, so a restart finds no record of how far
// the sequence had counted, and without seeding the next Append would
// reissue a number at or below the fence — which replay then silently
// skips as already-folded history. A journal with surviving entries
// already continues past them, making the seed a no-op.
func (j *Journal) SeedSeq(n int64) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if n > j.nextSeq {
		j.nextSeq = n
	}
}

// Append journals one mutation: it assigns the next sequence number,
// writes the entry as a single JSON line, and fsyncs before returning —
// an acknowledged mutation survives a crash. An entry whose line would be
// too long for Open to read back is refused before anything is written;
// a payload of at most MaxData bytes fits. A failed or partial write is
// rolled back (the file truncates to the last acknowledged entry), so a
// transient failure like ENOSPC leaves the journal a clean prefix of
// valid entries instead of a torn line that later valid appends would
// bury — a shape Open refuses to replay. If the rollback itself fails the
// journal is poisoned and refuses further Appends.
func (j *Journal) Append(kind string, data json.RawMessage) (Entry, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return Entry{}, fmt.Errorf("journal: closed")
	}
	if j.broken != nil {
		return Entry{}, j.broken
	}
	e := Entry{Seq: j.nextSeq, Time: time.Now().UTC(), Kind: kind, Data: data}
	line, err := json.Marshal(e)
	if err != nil {
		return Entry{}, fmt.Errorf("journal: marshal: %w", err)
	}
	line = append(line, '\n')
	if len(line) > maxLine {
		return Entry{}, fmt.Errorf("journal: entry of %d bytes exceeds the %d-byte line limit; nothing written", len(line), maxLine)
	}
	write := j.f.Write
	if j.writeFn != nil {
		write = j.writeFn
	}
	if _, err := write(line); err != nil {
		j.rollbackLocked()
		return Entry{}, fmt.Errorf("journal: write: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		// The bytes may be in the page cache but are not durable; roll
		// them back rather than acknowledge a mutation a crash could lose.
		j.rollbackLocked()
		return Entry{}, fmt.Errorf("journal: sync: %w", err)
	}
	j.size += int64(len(line))
	j.nextSeq++
	j.entries++
	return e, nil
}

// rollbackLocked restores the file to the last acknowledged entry (offset
// j.size, which only advances on a fully synced append) after a failed
// write. If the truncate or seek fails, the torn bytes stay on disk and
// the journal is poisoned: appending valid entries after corruption would
// turn a transient failure into a journal no restart can replay. Caller
// holds j.mu.
func (j *Journal) rollbackLocked() {
	if err := j.f.Truncate(j.size); err != nil {
		j.broken = fmt.Errorf("journal: torn append at byte %d not rolled back (%v); refusing further appends", j.size, err)
		return
	}
	if _, err := j.f.Seek(j.size, 0); err != nil {
		j.broken = fmt.Errorf("journal: seek after torn-append rollback (%v); refusing further appends", err)
	}
}

// Reset empties the journal after a compaction folded its entries into a
// snapshot. Sequence numbers keep counting — they identify mutations
// across compactions in logs and metrics.
func (j *Journal) Reset() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("journal: closed")
	}
	if err := j.f.Truncate(0); err != nil {
		return fmt.Errorf("journal: reset: %w", err)
	}
	if _, err := j.f.Seek(0, 0); err != nil {
		return fmt.Errorf("journal: reset seek: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal: reset sync: %w", err)
	}
	j.size, j.entries = 0, 0
	return nil
}

// Close flushes and closes the journal. Appends after Close fail.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
