package experiments

import (
	"fmt"
	"strings"

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

// Table2Result holds one dataset's agreement numbers at each offset.
type Table2Result struct {
	Domain   forum.Domain
	Offsets  []int
	Kappa    []float64
	Observed []float64
}

// Table2 reproduces the segmentation user-agreement study: Fleiss' kappa
// and observed agreement percentage at ±10/25/40 character offsets for the
// tech-support and travel datasets.
func Table2(opt Options) (string, []Table2Result) {
	opt = opt.withDefaults()
	offsets := []int{10, 25, 40}
	var results []Table2Result
	var rows [][]string
	for _, d := range segmentationDomains {
		n := opt.SegmentationPosts
		if d == forum.Travel {
			n = max(20, opt.SegmentationPosts/5) // the paper sampled 500 HP vs 100 Trip posts
		}
		s := newStudySample(d, n, opt.Annotators, opt.Seed)
		res := Table2Result{Domain: d, Offsets: offsets}
		var agDocs []eval.AgreementDoc
		for i := range s.posts {
			agDocs = append(agDocs, eval.AgreementDoc{
				Candidates:  s.anns[i].SentenceStarts[1:], // interior boundaries
				Annotations: s.anns[i].CharBorders,
			})
		}
		for _, off := range offsets {
			kappa, obs := eval.MultiDocBorderAgreement(agDocs, off)
			res.Kappa = append(res.Kappa, kappa)
			res.Observed = append(res.Observed, obs)
		}
		results = append(results, res)
	}
	for i, off := range offsets {
		row := []string{fmt.Sprintf("±%d chars", off)}
		for _, r := range results {
			row = append(row, fmt.Sprintf("%.2f / %.0f%%", r.Kappa[i], r.Observed[i]*100))
		}
		rows = append(rows, row)
	}
	header := []string{"Offset"}
	for _, r := range results {
		header = append(header, r.Domain.String()+" (kappa/agreement)")
	}
	out := "Table 2: user agreement on the segmentation task\n" + table(header, rows)
	return out, results
}

// Fig7 lists the intention categories each domain's posts are generated
// from — the ground-truth counterpart of the annotators' label clusters.
func Fig7(opt Options) string {
	var b strings.Builder
	b.WriteString("Fig 7: intention categories per domain\n")
	for _, d := range allDomains {
		fmt.Fprintf(&b, "%s:\n", d)
		for _, label := range forum.Intentions(d) {
			fmt.Fprintf(&b, "  - %s\n", label)
		}
	}
	return b.String()
}

// CMvsTermResult holds the Sec 9.1.2.A comparison for one dataset.
type CMvsTermResult struct {
	Domain    forum.Domain
	TermError float64 // Hearst TextTiling on term vectors
	CMError   float64 // Tile on CM features
	Reduction float64 // fractional error reduction
}

// CMvsTerm reproduces Sec 9.1.2.A: Hearst's term-based TextTiling vs the
// Tile mechanism on CM features, scored by multWinDiff against the
// simulated annotations. The paper reports 18% (HP) and 26% (TripAdvisor)
// error reduction from the CM representation.
func CMvsTerm(opt Options) (string, []CMvsTermResult) {
	opt = opt.withDefaults()
	var results []CMvsTermResult
	var rows [][]string
	for _, d := range segmentationDomains {
		s := newStudySample(d, opt.SegmentationPosts, opt.Annotators, opt.Seed)
		term := meanError(s, variant.TextTiling{})
		cmErr := meanError(s, variant.Tile{})
		red := 0.0
		if term > 0 {
			red = (term - cmErr) / term
		}
		results = append(results, CMvsTermResult{Domain: d, TermError: term, CMError: cmErr, Reduction: red})
		rows = append(rows, []string{d.String(), f3(term), f3(cmErr), pct(red * 100)})
	}
	out := "Sec 9.1.2.A: intention representation — CM vs term features (multWinDiff)\n" +
		table([]string{"Dataset", "Hearst (terms)", "Tile (CM)", "error reduction"}, rows)
	return out, results
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

// Fig8Row is one border-selection mechanism's summary.
type Fig8Row struct {
	Name      string
	AvgBorder float64
	Coherence float64
	Error     float64
}

// Fig8 reproduces the border-selection comparison: average border count,
// average segment coherence, and multWinDiff for Tile, Greedy, StepbyStep,
// and the simulated human annotators.
func Fig8(opt Options) (string, map[forum.Domain][]Fig8Row) {
	opt = opt.withDefaults()
	strategies := []segment.Strategy{variant.Tile{}, segment.Greedy{}, variant.StepbyStep{}}
	results := make(map[forum.Domain][]Fig8Row)
	var b strings.Builder
	b.WriteString("Fig 8: border selection mechanisms\n")
	for _, d := range segmentationDomains {
		s := newStudySample(d, opt.SegmentationPosts, opt.Annotators, opt.Seed)
		var rows [][]string
		for _, st := range strategies {
			row := Fig8Row{Name: st.Name()}
			for i := range s.posts {
				seg := st.Segment(s.docs[i])
				row.AvgBorder += float64(len(seg.Borders))
				row.Coherence += meanSegCoherence(s.docs[i], seg)
			}
			row.AvgBorder /= float64(len(s.posts))
			row.Coherence /= float64(len(s.posts))
			row.Error = meanError(s, st)
			results[d] = append(results[d], row)
			rows = append(rows, []string{row.Name, f2(row.AvgBorder), f3(row.Coherence), f3(row.Error)})
		}
		// Human row: annotator averages; error is leave-one-out agreement.
		human := Fig8Row{Name: "Human"}
		for i := range s.posts {
			ann := s.anns[i]
			var borders float64
			for _, sb := range ann.SentenceBorders {
				borders += float64(len(sb))
				human.Coherence += meanSegCoherence(s.docs[i], segment.NewSegmentation(sb, s.docs[i].Len()))
			}
			human.AvgBorder += borders / float64(len(ann.SentenceBorders))
			// Leave-one-out error of the first annotator against the rest.
			human.Error += eval.MultWinDiff(ann.SentenceBorders[1:], ann.SentenceBorders[0], s.docs[i].Len())
		}
		nAnn := float64(opt.Annotators)
		human.AvgBorder /= float64(len(s.posts))
		human.Coherence /= float64(len(s.posts)) * nAnn
		human.Error /= float64(len(s.posts))
		results[d] = append(results[d], human)
		rows = append(rows, []string{human.Name, f2(human.AvgBorder), f3(human.Coherence), f3(human.Error)})

		fmt.Fprintf(&b, "%s:\n%s", d, table([]string{"Mechanism", "avg borders", "avg coherence", "multWinDiff"}, rows))
	}
	return b.String(), results
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

// Fig9Row summarizes one coherence/depth function against the term-based
// baseline.
type Fig9Row struct {
	Name                         string
	Decrease, NoChange, Increase float64 // fraction of posts
	AvgErrorChange               float64 // negative = error reduction
}

// Fig9 reproduces the coherence/depth function comparison: each function
// drives the Tile mechanism, and per-post multWinDiff is compared against
// the Hearst term-based baseline, reporting the share of posts whose error
// decreased / stayed / increased and the mean error change. The paper
// finds Shannon's diversity the strongest (−0.24 average).
func Fig9(opt Options) (string, []Fig9Row) {
	opt = opt.withDefaults()
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
	var results []Fig9Row
	var rows [][]string
	for _, f := range funcs {
		row := Fig9Row{Name: f.Name()}
		var n float64
		for _, s := range samples {
			st := variant.Tile{Score: f}
			for i := range s.posts {
				hyp := st.Segment(s.docs[i]).Borders
				err := eval.MultWinDiff(s.anns[i].SentenceBorders, hyp, s.docs[i].Len())
				base := baseline[s.docs[i]]
				diff := err - base
				switch {
				case diff < -1e-9:
					row.Decrease++
				case diff > 1e-9:
					row.Increase++
				default:
					row.NoChange++
				}
				row.AvgErrorChange += diff
				n++
			}
		}
		row.Decrease /= n
		row.NoChange /= n
		row.Increase /= n
		row.AvgErrorChange /= n
		results = append(results, row)
		rows = append(rows, []string{row.Name, pct(row.Decrease * 100), pct(row.NoChange * 100),
			pct(row.Increase * 100), fmt.Sprintf("%+.3f", row.AvgErrorChange)})
	}
	out := "Fig 9: coherence/depth functions vs term-based baseline (multWinDiff)\n" +
		table([]string{"Function", "posts improved", "no change", "posts worse", "avg error change"}, rows)
	return out, results
}
