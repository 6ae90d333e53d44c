package onehot

import (
	"testing"
	"testing/quick"

	"auric/internal/dataset"
	"auric/internal/rng"
)

// table hand-assembles a dataset table with the given columns and rows.
func table(names []string, rows ...[]string) *dataset.Table {
	t := &dataset.Table{ColNames: names}
	for _, r := range rows {
		t.AppendRow(r, "", 0, dataset.Site{})
	}
	return t
}

// encode returns e's encoding of one row.
func encode(e *Encoder, row []string) []float64 {
	out := make([]float64, e.Width())
	e.TransformTo(out, row)
	return out
}

func fitSample() *Encoder {
	return FitTable(table([]string{"morphology", "freq"},
		[]string{"urban", "700"},
		[]string{"suburban", "1900"},
		[]string{"rural", "700"},
		[]string{"urban", "2100"},
	))
}

func TestWidthAndNames(t *testing.T) {
	e := fitSample()
	if e.Width() != 6 { // 3 morphologies + 3 frequencies
		t.Fatalf("Width = %d, want 6", e.Width())
	}
	// Output columns run column by column, categories in first-seen order:
	// morphology=urban, =suburban, =rural, freq=700, =1900, =2100.
	morphs := []string{"urban", "suburban", "rural"}
	freqs := []string{"700", "1900", "2100"}
	for i := range morphs {
		v := encode(e, []string{morphs[i], freqs[i]})
		if v[i] != 1 || v[3+i] != 1 {
			t.Errorf("%s/%s encodes as %v, want bits %d and %d", morphs[i], freqs[i], v, i, 3+i)
		}
	}
}

func TestTransformPaperExample(t *testing.T) {
	// Sec 4.2: a vector with values a, b, c; the carrier with value b
	// encodes as 0, 1, 0.
	e := FitTable(table([]string{"x"}, []string{"a"}, []string{"b"}, []string{"c"}))
	got := encode(e, []string{"b"})
	want := []float64{0, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("encoding of b = %v, want %v", got, want)
		}
	}
}

func TestBlockSumsToOne(t *testing.T) {
	// Sec 4.2: "the sum of the one-hot numeric array for a particular
	// carrier should be equal to 1" — per attribute block.
	e := fitSample()
	v := encode(e, []string{"rural", "2100"})
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	if sum != 2 { // one per input column
		t.Errorf("total activation = %v, want 2 (1 per column)", sum)
	}
	if v[2] != 1 || v[5] != 1 {
		t.Errorf("wrong positions: %v", v)
	}
}

func TestUnseenCategoryIsZeroBlock(t *testing.T) {
	e := fitSample()
	v := encode(e, []string{"urban", "850"}) // 850 never observed
	if v[0] != 1 {
		t.Error("seen category not encoded")
	}
	for i := 3; i < 6; i++ {
		if v[i] != 0 {
			t.Errorf("unseen category produced non-zero at %d: %v", i, v)
		}
	}
}

func TestTransformToReusesBuffer(t *testing.T) {
	e := fitSample()
	buf := make([]float64, e.Width())
	for i := range buf {
		buf[i] = 7 // garbage that must be cleared
	}
	e.TransformTo(buf, []string{"urban", "700"})
	sum := 0.0
	for _, x := range buf {
		sum += x
	}
	if sum != 2 {
		t.Errorf("TransformTo did not zero the buffer: %v", buf)
	}
}

// TestTransformAll encodes a whole table in one TransformTable call.
func TestTransformAll(t *testing.T) {
	e := fitSample()
	flat := e.TransformTable(table([]string{"morphology", "freq"},
		[]string{"urban", "700"}, []string{"rural", "1900"}))
	if len(flat) != 2*e.Width() {
		t.Fatalf("TransformTable length %d", len(flat))
	}
	if flat[0] != 1 || flat[e.Width()+2] != 1 {
		t.Error("TransformTable rows mis-encoded")
	}
}

func TestWidthMismatchPanics(t *testing.T) {
	e := fitSample()
	defer func() {
		if recover() == nil {
			t.Error("short row did not panic")
		}
	}()
	encode(e, []string{"urban"})
}

func TestPropertyExactlyOneHotPerSeenColumn(t *testing.T) {
	// Property: for rows drawn from the fitted vocabulary, every column
	// block has exactly one active bit, at the right category.
	r := rng.New(99)
	vocabA := []string{"a", "b", "c", "d"}
	vocabB := []string{"x", "y"}
	var rows [][]string
	for i := 0; i < 50; i++ {
		rows = append(rows, []string{rng.Pick(r, vocabA), rng.Pick(r, vocabB)})
	}
	e := FitTable(table([]string{"A", "B"}, rows...))
	f := func(ai, bi uint8) bool {
		row := []string{vocabA[int(ai)%len(vocabA)], vocabB[int(bi)%len(vocabB)]}
		v := encode(e, row)
		ones := 0
		for _, x := range v {
			if x == 1 {
				ones++
			} else if x != 0 {
				return false
			}
		}
		return ones == 2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
