package forum

import (
	"math/rand"
	"sort"

	"repro/internal/textproc"
)

// AnnotatorConfig parameterizes the simulated human segmentation study
// standing in for the paper's 30 annotators (Sec 9.1). Each simulated
// annotator starts from the generator's true borders and perturbs them:
// borders are missed with MissRate, surviving borders jitter by up to
// ±JitterChars characters, and spurious borders appear at non-gold sentence
// boundaries with AddRate. The defaults are calibrated so pooled observed
// agreement lands in the paper's 64–83% band (Table 2).
type AnnotatorConfig struct {
	NumAnnotators int     // 30 in the paper's study; 0 → 30
	JitterChars   int     // max ± jitter per border; 0 → 15
	MissRate      float64 // probability a gold border is dropped; 0 → 0.15
	AddRate       float64 // probability per non-gold boundary of a spurious border; 0 → 0.05
	Seed          int64
}

func (c AnnotatorConfig) withDefaults() AnnotatorConfig {
	if c.NumAnnotators <= 0 {
		c.NumAnnotators = 30
	}
	if c.JitterChars == 0 {
		c.JitterChars = 15
	}
	if c.MissRate == 0 {
		c.MissRate = 0.15
	}
	if c.AddRate == 0 {
		c.AddRate = 0.05
	}
	return c
}

// Annotations bundles one post's simulated study output.
type Annotations struct {
	// CharBorders[a] is annotator a's border character offsets, sorted.
	CharBorders [][]int
	// SentenceBorders[a] is the same borders as sentence indices.
	SentenceBorders [][]int
	// SentenceStarts[i] is the char offset of sentence i — the candidate
	// border positions for agreement computation.
	SentenceStarts []int
}

// Simulate runs the annotator pool over one post.
func Simulate(p Post, cfg AnnotatorConfig) Annotations {
	cfg = cfg.withDefaults()
	sents := textproc.SplitSentences(p.Text)
	starts := make([]int, len(sents))
	for i, s := range sents {
		starts[i] = s.Start
	}
	goldSents := map[int]bool{}
	for _, b := range p.GoldSentenceBorders() {
		goldSents[b] = true
	}

	ann := Annotations{SentenceStarts: starts}
	for a := 0; a < cfg.NumAnnotators; a++ {
		rng := rand.New(rand.NewSource(cfg.Seed*7_368_787 + int64(p.ID)*613 + int64(a)))
		var sentBorders []int
		for s := 1; s < len(sents); s++ {
			if goldSents[s] {
				if rng.Float64() >= cfg.MissRate {
					sentBorders = append(sentBorders, s)
				}
			} else if rng.Float64() < cfg.AddRate {
				sentBorders = append(sentBorders, s)
			}
		}
		charBorders := make([]int, len(sentBorders))
		for i, s := range sentBorders {
			jitter := rng.Intn(2*cfg.JitterChars+1) - cfg.JitterChars
			off := starts[s] + jitter
			if off < 0 {
				off = 0
			}
			if off > len(p.Text) {
				off = len(p.Text)
			}
			charBorders[i] = off
		}
		sort.Ints(charBorders)
		ann.CharBorders = append(ann.CharBorders, charBorders)
		ann.SentenceBorders = append(ann.SentenceBorders, sentBorders)
	}
	return ann
}
