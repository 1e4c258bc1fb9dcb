// Package eval implements the evaluation metrics of Sec 9: windowDiff and
// its multi-annotator variant multWinDiff for segmentation quality
// (Sec 9.1.2), Pk, Fleiss' kappa and observed agreement with character
// offset tolerance for the human study (Table 2), and mean precision for
// the retrieval evaluation (Table 4).
package eval

// windowDiff computes Pevzner & Hearst's windowDiff error between a
// reference and a hypothesis segmentation of a document with n text units.
// Borders are unit positions in (0, n). A window of size k slides over the
// sequence; a window is an error when the two segmentations disagree on the
// number of borders inside it. The result is in [0, 1]; 0 is a perfect
// match. k must be ≥ 1; the customary choice is half the average reference
// segment length.
func windowDiff(ref, hyp []int, n, k int) float64 {
	if n <= 1 {
		return 0
	}
	if k < 1 {
		k = 1
	}
	if k >= n {
		k = n - 1
	}
	refB := borderSet(ref, n)
	hypB := borderSet(hyp, n)
	errors := 0
	windows := 0
	for i := 0; i+k <= n; i++ {
		// Borders strictly inside the window (positions i+1 .. i+k-1) plus
		// the window edges convention: count borders in (i, i+k].
		r, h := 0, 0
		for p := i + 1; p <= i+k && p < n; p++ {
			if refB[p] {
				r++
			}
			if hypB[p] {
				h++
			}
		}
		if r != h {
			errors++
		}
		windows++
	}
	if windows == 0 {
		return 0
	}
	return float64(errors) / float64(windows)
}

// MultWinDiff computes the multi-annotator windowDiff of Kazantseva &
// Szpakowicz (2012): the mean windowDiff of the hypothesis against each
// reference annotation, with the window size set to half the average
// segment length across all references. It is the error reported throughout
// Sec 9.1.2.
func MultWinDiff(refs [][]int, hyp []int, n int) float64 {
	if len(refs) == 0 || n <= 1 {
		return 0
	}
	// Average reference segment length: n units divided by the average
	// number of segments.
	var totalSegs float64
	for _, ref := range refs {
		totalSegs += float64(len(borderList(ref, n)) + 1)
	}
	avgSegLen := float64(n) * float64(len(refs)) / totalSegs
	k := int(avgSegLen / 2)
	if k < 1 {
		k = 1
	}
	var sum float64
	for _, ref := range refs {
		sum += windowDiff(ref, hyp, n, k)
	}
	return sum / float64(len(refs))
}

// borderSet builds a position → is-border lookup, dropping out-of-range
// positions.
func borderSet(borders []int, n int) map[int]bool {
	m := make(map[int]bool, len(borders))
	for _, b := range borders {
		if b > 0 && b < n {
			m[b] = true
		}
	}
	return m
}

// borderList returns the in-range borders.
func borderList(borders []int, n int) []int {
	out := borders[:0:0]
	for _, b := range borders {
		if b > 0 && b < n {
			out = append(out, b)
		}
	}
	return out
}

// segmentIDs assigns each unit its segment ordinal under the given borders.
func segmentIDs(borders []int, n int) []int {
	b := borderSet(borders, n)
	ids := make([]int, n)
	cur := 0
	for i := 0; i < n; i++ {
		if b[i] {
			cur++
		}
		ids[i] = cur
	}
	return ids
}
