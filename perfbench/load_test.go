package main

import (
	"strconv"
	"strings"
	"testing"

	"auric/internal/lte"
)

func ndjsonLine(id, recs int) string {
	var b strings.Builder
	b.WriteString(`{"carrier":`)
	b.WriteString(strconv.Itoa(id))
	b.WriteString(`,"recommendations":[`)
	for i := 0; i < recs; i++ {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(`{"param":"p","neighbor":-1,"value":1,"explanation":"matched \"param\": x"}`)
	}
	b.WriteString("]}\n")
	return b.String()
}

func TestCheckNDJSON(t *testing.T) {
	ids := []lte.CarrierID{5, 0, 17}
	good := ndjsonLine(5, 3) + ndjsonLine(0, 3) + ndjsonLine(17, 3)
	if got := countLines([]byte(good)); got != 3 {
		t.Fatalf("countLines = %d, want 3", got)
	}
	if err := checkNDJSON([]byte(good), ids, 3); err != nil {
		t.Fatalf("well-formed stream rejected: %v", err)
	}
	bad := map[string]string{
		"truncated last line": strings.TrimSuffix(good, "\n"),
		"short stream":        ndjsonLine(5, 3) + ndjsonLine(0, 3),
		"extra line":          good + ndjsonLine(1, 3),
		"out of order":        ndjsonLine(0, 3) + ndjsonLine(5, 3) + ndjsonLine(17, 3),
		"missing answer":      ndjsonLine(5, 3) + ndjsonLine(0, 2) + ndjsonLine(17, 3),
		"error entry":         ndjsonLine(5, 3) + `{"carrier":-1,"error":"unknown carrier"}` + "\n" + ndjsonLine(17, 3),
	}
	for name, body := range bad {
		if err := checkNDJSON([]byte(body), ids, 3); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckSingle(t *testing.T) {
	body := "{\n  \"carrier\": 12,\n  \"recommendations\": [\n    {\n      \"param\": \"a\"\n    },\n    {\n      \"param\": \"b\"\n    }\n  ]\n}\n"
	if err := checkSingle([]byte(body), 12, 2); err != nil {
		t.Fatalf("well-formed answer rejected: %v", err)
	}
	if err := checkSingle([]byte(body), 1, 2); err == nil {
		t.Error("answer for carrier 12 accepted for carrier 1")
	}
	if err := checkSingle([]byte(body), 12, 3); err == nil {
		t.Error("two recommendations accepted where three are due")
	}
	if err := checkSingle([]byte(`{"error": "unknown carrier"}`), 12, 0); err == nil {
		t.Error("error body accepted")
	}
}

func TestChurnSchedule(t *testing.T) {
	var got []string
	for _, m := range churnSchedule(7) {
		kind := "T"
		if m.upsert {
			kind = "U"
		}
		got = append(got, kind+strconv.Itoa(m.clone))
	}
	if s := strings.Join(got, " "); s != "U0 U1 T0 U2 T1 U3 T2" {
		t.Fatalf("schedule %s, want U0 U1 T0 U2 T1 U3 T2", s)
	}
}
