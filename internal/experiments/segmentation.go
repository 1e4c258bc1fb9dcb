package experiments

import (
	"fmt"

	"repro/internal/eval"
	"repro/internal/forum"
	"repro/internal/segment"
	"repro/internal/variant"
)

// studySample bundles one domain's segmentation-study data: generated
// posts, their prepared docs, and simulated annotations.
type studySample struct {
	domain forum.Domain
	posts  []forum.Post
	docs   []*segment.Doc
	anns   []forum.Annotations
}

func newStudySample(d forum.Domain, n, annotators int, seed int64) studySample {
	s := studySample{domain: d}
	s.posts = forum.Generate(forum.Config{Domain: d, NumPosts: n, Seed: seed})
	cfg := forum.AnnotatorConfig{NumAnnotators: annotators, Seed: seed + 1}
	for _, p := range s.posts {
		s.docs = append(s.docs, segment.NewDoc(p.Text))
		s.anns = append(s.anns, forum.Simulate(p, cfg))
	}
	return s
}

// table2 reproduces the segmentation user-agreement study: Fleiss' kappa
// and observed agreement percentage at ±10/25/40 character offsets for the
// tech-support and travel datasets.
func table2(opt Options) (table, error) {
	offsets := []int{10, 25, 40}
	t := table{Title: "Table 2: user agreement on the segmentation task", Columns: []string{"Offset"}}
	rows := make([]row, len(offsets))
	for i, off := range offsets {
		rows[i].Label = fmt.Sprintf("±%d chars", off)
	}
	for _, d := range segmentationDomains {
		n := opt.SegmentationPosts
		if d == forum.Travel {
			n = max(20, opt.SegmentationPosts/5) // the paper sampled 500 HP vs 100 Trip posts
		}
		s := newStudySample(d, n, opt.Annotators, opt.Seed)
		var agDocs []eval.AgreementDoc
		for i := range s.posts {
			agDocs = append(agDocs, eval.AgreementDoc{
				Candidates:  s.anns[i].SentenceStarts[1:], // interior boundaries
				Annotations: s.anns[i].CharBorders,
			})
		}
		t.Columns = append(t.Columns, d.String()+" kappa", d.String()+" agreement")
		for i, off := range offsets {
			kappa, obs := eval.MultiDocBorderAgreement(agDocs, off)
			rows[i].Cells = append(rows[i].Cells, cell{kappa, "%.2f"}, cell{obs * 100, "%.0f%%"})
		}
	}
	t.Rows = rows
	return t, nil
}

// fig7 lists the intention categories each domain's posts are generated
// from — the ground-truth counterpart of the annotators' label clusters.
// Its rows are labels only.
func fig7(Options) (table, error) {
	t := table{Title: "Fig 7: intention categories per domain", Columns: []string{"Domain: intention"}}
	for _, d := range allDomains {
		for _, label := range forum.Intentions(d) {
			t.Rows = append(t.Rows, row{Label: d.String() + ": " + label})
		}
	}
	return t, nil
}

// cmVsTerm reproduces Sec 9.1.2.A: Hearst's term-based TextTiling vs the
// Tile mechanism on CM features, scored by multWinDiff against the
// simulated annotations. The paper reports 18% (HP) and 26% (TripAdvisor)
// error reduction from the CM representation.
func cmVsTerm(opt Options) (table, error) {
	t := table{Title: "Sec 9.1.2.A: intention representation — CM vs term features (multWinDiff)",
		Columns: []string{"Dataset", "Hearst (terms)", "Tile (CM)", "error reduction"}}
	for _, d := range segmentationDomains {
		s := newStudySample(d, opt.SegmentationPosts, opt.Annotators, opt.Seed)
		term := meanError(s, variant.TextTiling{})
		cmErr := meanError(s, variant.Tile{})
		red := 0.0
		if term > 0 {
			red = (term - cmErr) / term
		}
		t.Rows = append(t.Rows, row{d.String(), append(cells("%.3f", term, cmErr), cell{red * 100, "%.1f%%"})})
	}
	return t, nil
}

// meanError computes the mean multWinDiff of a strategy against the
// simulated annotations over a study sample.
func meanError(s studySample, st segment.Strategy) float64 {
	var sum float64
	for i := range s.posts {
		hyp := st.Segment(s.docs[i]).Borders
		sum += eval.MultWinDiff(s.anns[i].SentenceBorders, hyp, s.docs[i].Len())
	}
	return sum / float64(len(s.posts))
}

// fig8 reproduces the border-selection comparison: average border count,
// average segment coherence, and multWinDiff for Tile, Greedy, StepbyStep,
// and the simulated human annotators.
func fig8(opt Options) (table, error) {
	strategies := []segment.Strategy{variant.Tile{}, segment.Greedy{}, variant.StepbyStep{}}
	t := table{Title: "Fig 8: border selection mechanisms",
		Columns: []string{"Mechanism", "avg borders", "avg coherence", "multWinDiff"}}
	add := func(d forum.Domain, name string, borders, coherence, err float64) {
		t.Rows = append(t.Rows, row{d.String() + " " + name,
			[]cell{{borders, "%.2f"}, {coherence, "%.3f"}, {err, "%.3f"}}})
	}
	for _, d := range segmentationDomains {
		s := newStudySample(d, opt.SegmentationPosts, opt.Annotators, opt.Seed)
		n := float64(len(s.posts))
		for _, st := range strategies {
			var borders, coherence float64
			for i := range s.posts {
				seg := st.Segment(s.docs[i])
				borders += float64(len(seg.Borders))
				coherence += meanSegCoherence(s.docs[i], seg)
			}
			add(d, st.Name(), borders/n, coherence/n, meanError(s, st))
		}
		// Human row: annotator averages; error is leave-one-out agreement.
		var borders, coherence, humanErr float64
		for i := range s.posts {
			ann := s.anns[i]
			var b float64
			for _, sb := range ann.SentenceBorders {
				b += float64(len(sb))
				coherence += meanSegCoherence(s.docs[i], segment.NewSegmentation(sb, s.docs[i].Len()))
			}
			borders += b / float64(len(ann.SentenceBorders))
			// Leave-one-out error of the first annotator against the rest.
			humanErr += eval.MultWinDiff(ann.SentenceBorders[1:], ann.SentenceBorders[0], s.docs[i].Len())
		}
		add(d, "Human", borders/n, coherence/(n*float64(opt.Annotators)), humanErr/n)
	}
	return t, nil
}

// meanSegCoherence averages the Shannon coherence of a segmentation's
// segments.
func meanSegCoherence(d *segment.Doc, s segment.Segmentation) float64 {
	segs := s.Segments()
	if len(segs) == 0 {
		return 0
	}
	sf := variant.Shannon{}
	var sum float64
	for _, r := range segs {
		sum += sf.SegCoherence(d, r[0], r[1])
	}
	return sum / float64(len(segs))
}

// fig9 reproduces the coherence/depth function comparison: each function
// drives the Tile mechanism, and per-post multWinDiff is compared against
// the Hearst term-based baseline, reporting the share of posts whose error
// decreased / stayed / increased and the mean error change. The paper
// finds Shannon's diversity the strongest (−0.24 average).
func fig9(opt Options) (table, error) {
	funcs := []variant.ScoreFunc{
		variant.Cosine, variant.Euclidean, variant.Manhattan,
		variant.Richness{}, variant.Shannon{},
	}
	// Pool both study datasets, like the paper's combined table.
	var samples []studySample
	for _, d := range segmentationDomains {
		samples = append(samples, newStudySample(d, opt.SegmentationPosts, opt.Annotators, opt.Seed))
	}
	baseline := map[*segment.Doc]float64{}
	for _, s := range samples {
		for i := range s.posts {
			hyp := (variant.TextTiling{}).Segment(s.docs[i]).Borders
			baseline[s.docs[i]] = eval.MultWinDiff(s.anns[i].SentenceBorders, hyp, s.docs[i].Len())
		}
	}
	t := table{Title: "Fig 9: coherence/depth functions vs term-based baseline (multWinDiff)",
		Columns: []string{"Function", "posts improved", "no change", "posts worse", "avg error change"}}
	for _, f := range funcs {
		var decrease, noChange, increase, change, n float64
		for _, s := range samples {
			st := variant.Tile{Score: f}
			for i := range s.posts {
				hyp := st.Segment(s.docs[i]).Borders
				diff := eval.MultWinDiff(s.anns[i].SentenceBorders, hyp, s.docs[i].Len()) - baseline[s.docs[i]]
				switch {
				case diff < -1e-9:
					decrease++
				case diff > 1e-9:
					increase++
				default:
					noChange++
				}
				change += diff
				n++
			}
		}
		t.Rows = append(t.Rows, row{f.Name(),
			append(cells("%.1f%%", decrease/n*100, noChange/n*100, increase/n*100), cell{change / n, "%+.3f"})})
	}
	return t, nil
}
