// Command gencorpus emits a synthetic forum corpus as JSON lines, one post
// per line, with its ground truth (segments, intentions, scenario key).
// It is the one corpus source of cmd/serve and cmd/intentmatch, which
// read it with core.ReadCorpus.
//
// Usage:
//
//	gencorpus -domain tech -n 1000 -seed 7 > corpus.jsonl
//	gencorpus -domain tech -n 1000 -seed 42 | serve -corpus -
//
// Its three flags are plain flag package flags, not an internal/knob
// table as cmd/serve's and cmd/intentmatch's are: it has one mode, so
// no flag can be set where nothing reads it, and a table would bring a
// third copy of the refusal tests' helpers.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/forum"
)

// record is the JSON form of one generated post.
type record struct {
	ID       int             `json:"id"`
	Domain   string          `json:"domain"`
	Topic    int             `json:"topic"`
	Variant  int             `json:"variant"`
	Text     string          `json:"text"`
	Segments []segmentRecord `json:"segments"`
}

type segmentRecord struct {
	Intention string `json:"intention"`
	Start     int    `json:"start"`
	End       int    `json:"end"`
}

func main() {
	domain := flag.String("domain", "tech", "domain: tech, travel, prog (or programming), or health")
	n := flag.Int("n", 100, "number of posts")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	var d forum.Domain
	switch *domain {
	case "tech":
		d = forum.TechSupport
	case "travel":
		d = forum.Travel
	case "prog", "programming":
		d = forum.Programming
	case "health":
		d = forum.Health
	default:
		fmt.Fprintf(os.Stderr, "gencorpus: unknown domain %q (tech, travel, prog or programming, health)\n", *domain)
		os.Exit(2)
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	enc := json.NewEncoder(w)
	for i := 0; i < *n; i++ {
		p := forum.GeneratePost(d, i, *seed)
		rec := record{
			ID: p.ID, Domain: p.Domain.String(), Topic: p.Topic,
			Variant: p.Variant, Text: p.Text,
		}
		for _, s := range p.Segments {
			rec.Segments = append(rec.Segments, segmentRecord{
				Intention: s.Intention, Start: s.Start, End: s.End,
			})
		}
		if err := enc.Encode(rec); err != nil {
			fmt.Fprintln(os.Stderr, "gencorpus:", err)
			os.Exit(1)
		}
	}
}
