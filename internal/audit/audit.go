// Package audit is the durable half of the serving path's per-request
// observability: an append-only JSONL recommendation audit log, one
// record per (parameter, neighbor) value served, carrying everything
// needed to reconstruct the decision offline — the trace id (joining the
// record to its span tree at /debug/traces), the dependent attribute
// values the vote matched on, the predicted value, confidence, support,
// and the relaxation-ladder level the evidence settled at. This is the
// reproduction of the paper's deployment audit loop (Sec 5, Sec 7):
// engineers reviewed every configuration Auric generated, and a
// recommendation that cannot be explained after the fact cannot be
// trusted before it.
//
// Records are single JSON lines, so the log is greppable and jq-able
// without tooling (OPERATIONS.md has recipes). Rotation is by size:
// when the active file would exceed MaxBytes it is renamed to
// <path>.1 (shifting older generations up, dropping past Keep), so a
// long-lived auricd bounds its disk footprint without losing the most
// recent decisions. Append is safe for concurrent use.
package audit

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// Record is one audited recommendation value. Field names are stable —
// they are the on-disk schema documented in OPERATIONS.md.
type Record struct {
	// Time is the serving timestamp.
	Time time.Time `json:"ts"`
	// TraceID joins the record to its request's span tree (present even
	// for unsampled requests; empty only outside the HTTP path).
	TraceID string `json:"traceId,omitempty"`
	// Carrier is the carrier the query was about; Param the configuration
	// parameter; Neighbor the pair-wise target carrier or -1.
	Carrier  int    `json:"carrier"`
	Param    string `json:"param"`
	Neighbor int    `json:"neighbor"`
	// Value/Label are the recommended grid value and its canonical label.
	Value float64 `json:"value"`
	Label string  `json:"label,omitempty"`
	// Confidence is the vote share behind the value; Supported whether it
	// met the 75% threshold.
	Confidence float64 `json:"confidence"`
	Supported  bool    `json:"supported"`
	// RelaxationLevel is the ladder level the vote settled at (0 = full
	// dependent set), Candidates the carriers that voted, VoteShare the
	// winning share, ExactIndexHit whether the pool came from the exact
	// full-key index rather than posting-list intersection.
	RelaxationLevel int     `json:"relaxationLevel"`
	Candidates      int     `json:"candidates"`
	VoteShare       float64 `json:"voteShare"`
	ExactIndexHit   bool    `json:"exactIndexHit"`
	// Dependents are the "attribute=value" pairs of the dependent
	// attributes the model matched on; Dropped names the attributes the
	// ladder relaxed away (comma-joined, weakest first).
	Dependents []string `json:"dependents,omitempty"`
	Dropped    string   `json:"dropped,omitempty"`
	// Explanation is the engineer-facing account served to the caller.
	Explanation string `json:"explanation,omitempty"`
}

// Options configure a Log.
type Options struct {
	// MaxBytes rotates the active file before it would exceed this size
	// (default 64 MiB). A single record larger than MaxBytes is still
	// written whole — rotation bounds growth, it never truncates records.
	MaxBytes int64
}

// keep is how many rotated generations (<path>.1 … <path>.3) are retained.
const keep = 3

// Log is an append-only JSONL audit log with size rotation.
type Log struct {
	mu   sync.Mutex
	f    *os.File
	path string
	size int64
	opts Options
}

// Open creates or appends to the audit log at path.
func Open(path string, opts Options) (*Log, error) {
	if opts.MaxBytes <= 0 {
		opts.MaxBytes = 64 << 20
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("audit: open: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("audit: stat: %w", err)
	}
	return &Log{f: f, path: path, size: st.Size(), opts: opts}, nil
}

// Append writes one record as a single JSON line, rotating first when the
// line would push the active file past MaxBytes.
func (l *Log) Append(r Record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("audit: marshal: %w", err)
	}
	line = append(line, '\n')
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return fmt.Errorf("audit: log closed")
	}
	if l.size > 0 && l.size+int64(len(line)) > l.opts.MaxBytes {
		if err := l.rotate(); err != nil {
			return err
		}
	}
	n, err := l.f.Write(line)
	l.size += int64(n)
	if err != nil {
		return fmt.Errorf("audit: write: %w", err)
	}
	return nil
}

// rotate shifts <path>.i to <path>.(i+1) for i = keep-1 … 1, renames the
// active file to <path>.1, and opens a fresh active file. Called with the
// lock held.
func (l *Log) rotate() error {
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("audit: rotate close: %w", err)
	}
	os.Remove(fmt.Sprintf("%s.%d", l.path, keep))
	for i := keep - 1; i >= 1; i-- {
		from := fmt.Sprintf("%s.%d", l.path, i)
		if _, err := os.Stat(from); err == nil {
			os.Rename(from, fmt.Sprintf("%s.%d", l.path, i+1))
		}
	}
	if err := os.Rename(l.path, l.path+".1"); err != nil {
		return fmt.Errorf("audit: rotate rename: %w", err)
	}
	f, err := os.OpenFile(l.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("audit: rotate reopen: %w", err)
	}
	l.f, l.size = f, 0
	return nil
}

// Close flushes and closes the active file. Appends after Close fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
