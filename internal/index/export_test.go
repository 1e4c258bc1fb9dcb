package index

// weight is the Eq 7/8 weight of a posting with numerator logTF in a unit
// with the given denominator and unique-term count: the definition the
// scans' divisor column (normsFor) is held to, bit for bit.
func weight(denom float64, unique int32, logTF, avgUnique float64) float64 {
	if denom == 0 {
		return 0
	}
	return logTF / (denom * nu(unique, avgUnique))
}

func (ix *Index) postingWeight(p Posting, avgUnique float64) float64 {
	return weight(ix.denoms[p.Unit], ix.uniques[p.Unit], logTF(p.TF), avgUnique)
}

// Weight computes the Eq 7/8 weight of a term within a unit, 0 if the
// term does not occur in it.
func (ix *Index) Weight(term string, unit int) float64 {
	if ix.rlockStats() {
		defer ix.global.mu.RUnlock()
	}
	if tf, ok := ix.list(ix.dict.Lookup(term)).find(int32(unit)); ok {
		return ix.postingWeight(Posting{Unit: int32(unit), TF: tf}, ix.avgUnique())
	}
	return 0
}

// IDF computes a term's Eq 9 pIDF under the current statistics.
func (ix *Index) IDF(term string) float64 {
	idfs, _ := ix.FrozenScoring([]int32{ix.dict.Lookup(term)}, nil)
	return idfs[0]
}

// DocFreq returns the pooled document frequency of term.
func (gs *GlobalStats) DocFreq(term string) int {
	gs.mu.RLock()
	defer gs.mu.RUnlock()
	if gs.dict == nil {
		return 0
	}
	return gs.dfLocked(gs.dict.Lookup(term))
}

// Units returns the pooled unit count (Eq 9's N across all attached
// indices).
func (gs *GlobalStats) Units() int {
	gs.mu.RLock()
	defer gs.mu.RUnlock()
	return gs.units
}

// TotalUnique returns the pooled sum of unique-term counts.
func (gs *GlobalStats) TotalUnique() int64 {
	gs.mu.RLock()
	defer gs.mu.RUnlock()
	return gs.totalUnique
}

// Stats returns the attached pool, or nil for a standalone index.
func (ix *Index) Stats() *GlobalStats {
	return ix.global
}
