package index

// QueryExhaustive is the always-exhaustive reference scorer: every
// posting of every query term is walked into the accumulator, exactly
// as Query scored before max-score pruning existed. It exists for the
// pruned-vs-exhaustive equivalence tests and benchmarks; serving paths
// should use Query.
func (ix *Index) QueryExhaustive(queryTF map[string]float64, topN int, exclude func(unit int) bool) []Result {
	return ix.query(queryTF, topN, exclude, nil, false)
}
