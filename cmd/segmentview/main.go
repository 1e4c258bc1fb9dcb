// Command segmentview shows how the pipeline sees one post: its sentence
// units, the communication-means track of each sentence (the bar charts of
// the paper's Fig 2), and the borders each segmentation strategy selects.
//
// Usage:
//
//	segmentview < post.txt
//	echo "I have an HP system. ... " | segmentview
//
// It exits 2 on an input without a sentence, and 1 when stdin cannot be
// read.
package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/cm"
	"repro/internal/segment"
	"repro/internal/variant"
)

// badInput is an input without a post in it: exit status 2.
type badInput string

func (e badInput) Error() string { return string(e) }

func main() {
	if err := run(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "segmentview:", err)
		if errors.As(err, new(badInput)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run reads one post from stdin and prints its sentence units, CM
// tracks and segmentations to stdout.
func run(stdin io.Reader, stdout io.Writer) error {
	raw, err := io.ReadAll(stdin)
	if err != nil {
		return fmt.Errorf("reading stdin: %w", err)
	}
	text := strings.TrimSpace(string(raw))
	if text == "" {
		return badInput("empty input; pipe a forum post on stdin")
	}
	d := segment.NewDoc(text)
	if d.Len() == 0 {
		return badInput("no sentences found")
	}

	fmt.Fprintf(stdout, "%d sentence units\n\n", d.Len())
	fmt.Fprintln(stdout, "CM tracks (dominant categorical value per communication mean):")
	fmt.Fprintf(stdout, "%-4s %-8s %-7s %-9s %-8s  %s\n", "#", "tense", "subj", "style", "status", "sentence")
	for i := 0; i < d.Len(); i++ {
		a := d.Range(i, i+1)
		fmt.Fprintf(stdout, "%-4d %-8s %-7s %-9s %-8s  %s\n", i,
			dominant(a, cm.Tense), dominant(a, cm.Subject),
			dominant(a, cm.Style), dominant(a, cm.Status),
			truncate(d.Sents[i].Text, 60))
	}

	fmt.Fprintln(stdout, "\nSegmentations (borders are sentence indices):")
	strategies := []segment.Strategy{
		segment.Greedy{}, variant.Tile{}, variant.StepbyStep{},
		variant.TopDown{}, variant.TextTiling{},
	}
	for _, st := range strategies {
		seg := st.Segment(d)
		fmt.Fprintf(stdout, "  %-12s %v  (%d segments)\n", st.Name(), seg.Borders, seg.NumSegments())
	}

	fmt.Fprintln(stdout, "\nGreedy segments:")
	for i, r := range (segment.Greedy{}).Segment(d).Segments() {
		var parts []string
		for s := r[0]; s < r[1]; s++ {
			parts = append(parts, d.Sents[s].Text)
		}
		fmt.Fprintf(stdout, "  [%d] %s\n", i, strings.Join(parts, " "))
	}
	return nil
}

// dominant names the most frequent categorical value of a mean in the
// annotation, or "-" when the mean is absent.
func dominant(a cm.Annotation, m cm.Mean) string {
	lo, hi := cm.FeaturesOf(m)
	best, bestCount := -1, 0.0
	for f := lo; f < hi; f++ {
		if a.Counts[f] > bestCount {
			best, bestCount = f, a.Counts[f]
		}
	}
	if best < 0 {
		return "-"
	}
	return strings.ToLower(cm.Feature(best).String())
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
