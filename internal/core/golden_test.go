package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/forum"
)

// updateGolden rewrites the checked-in golden file instead of comparing
// against it: go test ./internal/core/ -run TestRelatedGolden -update
var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

const (
	goldenPosts   = 200
	goldenSeed    = 1234
	goldenQueries = 25
	goldenK       = 5
)

// goldenRender builds a pipeline over the fixed gencorpus-style corpus
// and renders the top-k Related results for the fixed query set, scores
// at full float64 round-trip precision, under runtime.GOMAXPROCS(procs) —
// the size of every build pool.
func goldenRender(t *testing.T, procs int) string {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	posts := forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: goldenPosts, Seed: goldenSeed})
	texts := make([]string, len(posts))
	for i, p := range posts {
		texts[i] = p.Text
	}
	p, err := Build(texts, Config{Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	return renderRelated(p)
}

// renderRelated renders the fixed golden query set against a pipeline.
func renderRelated(p *Pipeline) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Related top-%d, %s corpus n=%d seed=%d, method %s\n",
		goldenK, "tech", goldenPosts, goldenSeed, p.Method())
	for doc := 0; doc < goldenQueries; doc++ {
		fmt.Fprintf(&b, "%d:", doc)
		for _, r := range p.Related(doc, goldenK) {
			b.WriteString(" ")
			b.WriteString(strconv.Itoa(r.DocID))
			b.WriteString("=")
			b.WriteString(strconv.FormatFloat(r.Score, 'g', -1, 64))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestRelatedGolden is the end-to-end determinism gate: the full offline
// build (segmentation → vectors → clustering → refinement → indexing)
// plus the online ranking must produce byte-identical output run over
// run AND across worker counts — the property the PR 2 parallel build
// promised ("results are identical for any worker count") and the
// persistence layer depends on. The rendered results are also pinned to
// a committed golden file so an unintended ranking change in any layer
// below shows up as a diff, not as a silently shifted experiment table.
func TestRelatedGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("several full 200-post builds")
	}
	serial := goldenRender(t, 1)
	parallel := goldenRender(t, 8)
	if serial != parallel {
		t.Fatalf("build is not worker-count deterministic:\nworkers=1:\n%s\nworkers=8:\n%s", serial, parallel)
	}

	path := filepath.Join("testdata", "golden_related.txt")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(serial), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if string(want) != serial {
		t.Fatalf("Related output drifted from %s (intentional? rerun with -update):\n--- want\n%s\n--- got\n%s", path, want, serial)
	}
}
