package audit

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

func record(i int) Record {
	return Record{
		Time:            time.Date(2026, 8, 5, 12, 0, i%60, 0, time.UTC),
		TraceID:         fmt.Sprintf("%032x", i+1),
		Carrier:         i,
		Param:           "sFreqPrio",
		Neighbor:        -1,
		Value:           7142,
		Label:           "7142",
		Confidence:      0.94,
		Supported:       true,
		RelaxationLevel: i % 3,
		Candidates:      12,
		VoteShare:       0.94,
		ExactIndexHit:   i%3 == 0,
		Dependents:      []string{"morphology=rural", "carrierFrequency=1900"},
		Dropped:         "trackingAreaCode",
		Explanation:     "94% of 12 carriers matching on morphology=rural hold 7142",
	}
}

// readJSONL decodes every line of a JSONL file, failing the test on any
// line that is not a complete JSON record — the valid-JSONL guarantee
// rotation must never break (a torn line would poison every jq pipeline
// in OPERATIONS.md).
func readJSONL(t *testing.T, path string) []Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("%s: invalid JSONL line %q: %v", path, sc.Text(), err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestAppendRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := []Record{record(0), record(1), record(2)}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got := readJSONL(t, path)
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if !g.Time.Equal(w.Time) {
			t.Errorf("record %d time: %v != %v", i, g.Time, w.Time)
		}
		g.Time, w.Time = time.Time{}, time.Time{}
		if fmt.Sprintf("%+v", g) != fmt.Sprintf("%+v", w) {
			t.Errorf("record %d round trip:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

func TestRotationBySize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	one, _ := json.Marshal(record(0))
	// Room for ~3 records per generation.
	l, err := Open(path, Options{MaxBytes: int64(3*len(one) + 10)})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	for i := 0; i < n; i++ {
		if err := l.Append(record(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Active + .1 … .keep exist and are valid JSONL; .keep+1 was dropped.
	var total int
	paths := []string{path}
	for i := 1; i <= keep; i++ {
		paths = append(paths, fmt.Sprintf("%s.%d", path, i))
	}
	for _, p := range paths {
		recs := readJSONL(t, p)
		if len(recs) == 0 && p != path {
			t.Errorf("%s: empty generation", p)
		}
		if st, err := os.Stat(p); err != nil {
			t.Errorf("%s: %v", p, err)
		} else if st.Size() > int64(3*len(one)+10) {
			t.Errorf("%s: %d bytes exceeds MaxBytes", p, st.Size())
		}
		total += len(recs)
	}
	if _, err := os.Stat(fmt.Sprintf("%s.%d", path, keep+1)); !os.IsNotExist(err) {
		t.Errorf("generation beyond keep retained: %v", err)
	}
	if total >= n {
		t.Errorf("retained %d of %d records; rotation keeping %d generations should have dropped some", total, n, keep)
	}
	// The newest records survive in the active file.
	recs := readJSONL(t, path)
	if recs[len(recs)-1].Carrier != n-1 {
		t.Errorf("last record carrier = %d, want %d", recs[len(recs)-1].Carrier, n-1)
	}
}

// TestConcurrentAppend exercises Append from many goroutines across
// rotations (under -race via make check): every surviving line must be
// complete JSON.
func TestConcurrentAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	one, _ := json.Marshal(record(0))
	l, err := Open(path, Options{MaxBytes: int64(5 * len(one))})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if err := l.Append(record(w*25 + i)); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{path, path + ".1", path + ".2", path + ".3"} {
		if _, err := os.Stat(p); err == nil {
			readJSONL(t, p) // fails on any torn line
		}
	}
	if err := l.Append(record(0)); err == nil {
		t.Error("append after Close succeeded")
	}
}

func TestOpenAppendsToExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "audit.jsonl")
	l, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l.Append(record(0))
	l.Close()

	l2, err := Open(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	l2.Append(record(1))
	l2.Close()
	if got := readJSONL(t, path); len(got) != 2 {
		t.Fatalf("reopen lost records: %d", len(got))
	}
}
