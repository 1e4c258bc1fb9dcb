package eval

// This file implements the inter-annotator agreement measures of Table 2:
// observed agreement percentage and Fleiss' kappa over border placements,
// with a character-offset tolerance (±10/25/40 chars in the paper) deciding
// when two annotators "agree" on a border.

// FleissKappa computes Fleiss' kappa and the observed agreement P̄ from an
// items × categories count matrix: counts[i][j] is the number of raters
// that assigned item i to category j. Every item must have the same total
// number of raters n ≥ 2. Kappa is (P̄−P̄e)/(1−P̄e); if P̄e == 1 (all raters
// always picked one category) kappa is defined as 1 when agreement is
// perfect.
func FleissKappa(counts [][]int) (kappa, observed float64) {
	if len(counts) == 0 {
		return 0, 0
	}
	n := 0
	for _, c := range counts[0] {
		n += c
	}
	if n < 2 {
		return 0, 0
	}
	numCats := len(counts[0])
	catTotals := make([]float64, numCats)
	var pBar float64
	for _, row := range counts {
		var agree float64
		for j, c := range row {
			agree += float64(c * (c - 1))
			catTotals[j] += float64(c)
		}
		pBar += agree / float64(n*(n-1))
	}
	pBar /= float64(len(counts))

	total := float64(len(counts) * n)
	var pe float64
	for _, t := range catTotals {
		p := t / total
		pe += float64(p * p)
	}
	if pe >= 1 {
		if pBar >= 1 {
			return 1, pBar
		}
		return 0, pBar
	}
	return (pBar - pe) / (1 - pe), pBar
}

// borderAgreement evaluates how well multiple annotators agree on where
// segment borders lie in one document. candidates are the char offsets of
// the document's possible border positions (in this system: sentence
// boundaries); annotations are each annotator's chosen border offsets. A
// candidate counts as marked by an annotator when one of their borders has
// that candidate as its nearest candidate and lies within ±offset
// characters of it — nearest-assignment prevents one jittered border from
// marking two adjacent candidates at loose tolerances. The items of the
// agreement matrix are the candidates, with the two categories
// border / no-border.
func borderAgreement(candidates []int, annotations [][]int, offset int) (kappa, observed float64) {
	if len(candidates) == 0 || len(annotations) < 2 {
		return 0, 0
	}
	counts := borderCounts(candidates, annotations, offset)
	return FleissKappa(counts)
}

// borderCounts builds the items × {border, no-border} matrix under
// nearest-candidate assignment.
func borderCounts(candidates []int, annotations [][]int, offset int) [][]int {
	counts := make([][]int, len(candidates))
	for i := range counts {
		counts[i] = []int{0, len(annotations)}
	}
	for _, ann := range annotations {
		marked := make(map[int]bool)
		for _, b := range ann {
			best, bestD := -1, offset+1
			for ci, cand := range candidates {
				d := b - cand
				if d < 0 {
					d = -d
				}
				if d < bestD {
					best, bestD = ci, d
				}
			}
			if best >= 0 {
				marked[best] = true
			}
		}
		for ci := range marked {
			counts[ci][0]++
			counts[ci][1]--
		}
	}
	return counts
}

// MultiDocBorderAgreement pools the agreement items of many documents into
// a single kappa/observed computation, mirroring Table 2's per-dataset
// numbers. Each element pairs one document's candidate offsets with its
// annotators' border offsets; documents with fewer than two annotations are
// skipped.
func MultiDocBorderAgreement(docs []AgreementDoc, offset int) (kappa, observed float64) {
	var counts [][]int
	for _, doc := range docs {
		if len(doc.Candidates) == 0 || len(doc.Annotations) < 2 {
			continue
		}
		counts = append(counts, borderCounts(doc.Candidates, doc.Annotations, offset)...)
	}
	return FleissKappa(counts)
}

// AgreementDoc is one document's contribution to a pooled agreement
// computation.
type AgreementDoc struct {
	Candidates  []int   // candidate border char offsets (sentence boundaries)
	Annotations [][]int // per-annotator border char offsets
}
