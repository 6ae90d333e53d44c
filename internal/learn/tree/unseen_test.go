package tree

import (
	"strings"
	"testing"

	"auric/internal/dataset"
)

// TestUnseenCategoryRoutesNotEqual pins the remap contract: a query value
// never seen at fit time encodes to -1, which can equal no split category,
// so every internal node routes it down the not-equal branch. Here the
// root must test band=="a" (first-seen category, tie broken by id), and an
// unseen band must land in the not-equal subtree's label.
func TestUnseenCategoryRoutesNotEqual(t *testing.T) {
	tbl := &dataset.Table{ColNames: []string{"band"}}
	for i := 0; i < 5; i++ {
		tbl.AppendRow([]string{"a"}, "L1", 0, dataset.Site{})
	}
	for i := 0; i < 5; i++ {
		tbl.AppendRow([]string{"b"}, "L2", 0, dataset.Site{})
	}
	m, err := New().Fit(tbl)
	if err != nil {
		t.Fatal(err)
	}
	p := m.Predict([]string{"never-seen"})
	if p.Label != "L2" {
		t.Fatalf("unseen category predicted %q, want the not-equal branch label L2 (%+v)", p.Label, p)
	}
	if !strings.Contains(p.Explanation, "band≠a") {
		t.Fatalf("explanation %q does not show the not-equal step band≠a", p.Explanation)
	}
	if got := m.(*Tree).PredictLabel([]string{"never-seen"}); got != "L2" {
		t.Fatalf("PredictLabel = %q, want L2", got)
	}
}
