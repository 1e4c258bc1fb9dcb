package eval

// This file implements the retrieval-effectiveness measures of Sec 9.2:
// binary-relevance precision of a top-k list and the mean precision over
// query posts that Table 4 reports.

// Precision returns the fraction of retrieved ids judged relevant. An empty
// retrieval has precision 0 (a list with no true positives, as counted in
// the paper's "lists with mean precision 0" statistic).
func Precision(retrieved []int, relevant map[int]bool) float64 {
	if len(retrieved) == 0 {
		return 0
	}
	hits := 0
	for _, id := range retrieved {
		if relevant[id] {
			hits++
		}
	}
	return float64(hits) / float64(len(retrieved))
}

// MeanPrecision averages per-query precision values ("the mean of the
// precision values considering each information need separately").
func MeanPrecision(perQuery []float64) float64 {
	if len(perQuery) == 0 {
		return 0
	}
	var sum float64
	for _, p := range perQuery {
		sum += p
	}
	return sum / float64(len(perQuery))
}
