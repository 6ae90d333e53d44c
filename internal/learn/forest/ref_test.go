package forest

// Equivalence and determinism tests for the parallel columnar forest: the
// pre-parallel serial fit loop (same RNG draw order, vote-string majority)
// is replicated here as the reference, and worker counts must never change
// the fitted ensemble. The race detector runs these too (make check), so
// the shared-frame concurrent growth is exercised under -race.

import (
	"fmt"
	"testing"

	"auric/internal/dataset"
	"auric/internal/learn"
	"auric/internal/learn/internal/learntest"
	"auric/internal/learn/tree"
	"auric/internal/rng"
)

// refFit replicates the original serial forest fit: per tree, n bootstrap
// Intn draws then one Uint64 seed, trees grown one at a time.
func refFit(t *dataset.Table, opts Options) []*tree.Tree {
	if opts.Trees <= 0 {
		opts.Trees = 100
	}
	r := rng.New(opts.Seed ^ 0xf0fe57)
	trees := make([]*tree.Tree, 0, opts.Trees)
	n := t.Len()
	for k := 0; k < opts.Trees; k++ {
		boot := make([]int, n)
		for i := range boot {
			boot[i] = r.Intn(n)
		}
		tl := &tree.Learner{Opts: tree.Options{
			ColsPerSplit:        opts.ColsPerSplit,
			OneHotFeatureSample: opts.ColsPerSplit <= 0,
			Seed:                r.Uint64(),
		}}
		tr, err := tl.FitIndices(t, boot)
		if err != nil {
			panic(err)
		}
		trees = append(trees, tr)
	}
	return trees
}

// refPredict is the original vote path: a []string of per-tree labels fed
// through learn.MajorityLabel.
func refPredict(trees []*tree.Tree, row []string) learn.Prediction {
	votes := make([]string, len(trees))
	for i, tr := range trees {
		votes[i] = tr.Predict(row).Label
	}
	label, share := learn.MajorityLabel(votes)
	return learn.Prediction{
		Label:      label,
		Confidence: share,
		Explanation: fmt.Sprintf("%d of %d trees vote %s",
			int(share*float64(len(trees))+0.5), len(trees), label),
	}
}

// TestForestMatchesSerialReference pins the parallel shared-frame fit and
// the dense-count vote to the original serial loop: identical tree
// structures and byte-identical predictions, on training rows and rows
// with unseen categories.
func TestForestMatchesSerialReference(t *testing.T) {
	for _, noise := range []float64{0, 0.2} {
		tbl := learntest.RuleTable(120, noise, 5)
		opts := Options{Trees: 25, Seed: 3}
		m, err := (&Learner{Opts: opts}).Fit(tbl)
		if err != nil {
			t.Fatal(err)
		}
		fm := m.(*Model)
		ref := refFit(tbl, opts)
		if len(fm.trees) != len(ref) {
			t.Fatalf("trees %d, ref %d", len(fm.trees), len(ref))
		}
		for k := range ref {
			if fm.trees[k].NumNodes() != ref[k].NumNodes() {
				t.Fatalf("noise %.1f tree %d: %d nodes, ref %d",
					noise, k, fm.trees[k].NumNodes(), ref[k].NumNodes())
			}
		}
		for i := 0; i < tbl.Len(); i++ {
			row := tbl.Row(i)
			if g, w := m.Predict(row), refPredict(ref, row); g != w {
				t.Fatalf("noise %.1f row %d:\n got %+v\nwant %+v", noise, i, g, w)
			}
			if lab := fm.PredictLabel(row); lab != refPredict(ref, row).Label {
				t.Fatalf("noise %.1f row %d: PredictLabel mismatch", noise, i)
			}
			row[i%len(row)] = "unseen-value"
			if g, w := m.Predict(row), refPredict(ref, row); g != w {
				t.Fatalf("noise %.1f unseen row %d:\n got %+v\nwant %+v", noise, i, g, w)
			}
		}
	}
}

// TestForestWorkerDeterminism fits the same forest at several worker
// counts and requires identical predictions everywhere. Run under -race
// this also exercises concurrent growth over one shared frame.
func TestForestWorkerDeterminism(t *testing.T) {
	tbl := learntest.RuleTable(150, 0.1, 9)
	base, err := (&Learner{Opts: Options{Trees: 30, Seed: 7, Workers: 1}}).Fit(tbl)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 3, 16} {
		m, err := (&Learner{Opts: Options{Trees: 30, Seed: 7, Workers: workers}}).Fit(tbl)
		if err != nil {
			t.Fatal(err)
		}
		for k := range base.(*Model).trees {
			if m.(*Model).trees[k].NumNodes() != base.(*Model).trees[k].NumNodes() {
				t.Fatalf("workers=%d tree %d: node count differs", workers, k)
			}
		}
		for i := 0; i < tbl.Len(); i++ {
			row := tbl.Row(i)
			if g, w := m.Predict(row), base.Predict(row); g != w {
				t.Fatalf("workers=%d row %d:\n got %+v\nwant %+v", workers, i, g, w)
			}
		}
	}
}
