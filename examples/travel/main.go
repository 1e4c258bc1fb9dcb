// Travel: the hotel-review scenario from the paper's evaluation — find
// reviews related to a reference review, and show why whole-post matching
// confuses reviews of the same hotel type that serve different needs.
//
// Run with: go run ./examples/travel
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/forum"
)

func main() {
	posts := forum.Generate(forum.Config{Domain: forum.Travel, NumPosts: 250, Seed: 23})
	texts := make([]string, len(posts))
	for i, p := range posts {
		texts[i] = p.Text
	}

	intent, err := core.Build(texts, core.Config{Seed: 23})
	if err != nil {
		log.Fatal(err)
	}
	full := baseline.NewFullText(baseline.Terms(baseline.Prepare(texts)))

	// Pick a query and compare what the two methods retrieve.
	const q = 3
	relevant := forum.RelevantSet(posts, posts[q])
	fmt.Printf("query review (topic %d, request variant %d):\n  %s\n\n",
		posts[q].Topic, posts[q].Variant, wrap(posts[q].Text, 76))
	for _, m := range []struct {
		name    string
		related func(docID, k int) []core.Result
	}{{full.Name(), full.Match}, {intent.Method(), intent.Related}} {
		fmt.Printf("%s top-5:\n", m.name)
		hits := 0
		for rank, r := range m.related(q, 5) {
			tag := "different need"
			if relevant[r.DocID] {
				tag = "RELATED"
				hits++
			} else if posts[r.DocID].Topic != posts[q].Topic {
				tag = "different topic"
			}
			fmt.Printf("  %d. post %-4d [%s] topic %d variant %d\n",
				rank+1, r.DocID, tag, posts[r.DocID].Topic, posts[r.DocID].Variant)
		}
		fmt.Printf("  → %d/5 truly related\n\n", hits)
	}
}

// wrap folds text to a maximum line width for terminal display.
func wrap(s string, width int) string {
	words := strings.Fields(s)
	var b strings.Builder
	line := 0
	for _, w := range words {
		if line+len(w)+1 > width {
			b.WriteString("\n  ")
			line = 0
		} else if line > 0 {
			b.WriteByte(' ')
			line++
		}
		b.WriteString(w)
		line += len(w)
	}
	return b.String()
}
