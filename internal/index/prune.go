package index

import (
	"cmp"
	"slices"

	"repro/internal/obs"
)

// Max-score pruning (Turtle & Flood-style, term-at-a-time) over the
// Eq 7–9 scan. The exhaustive scan walks every posting of every query
// term; on a large collection almost all of that work scores units that
// can never reach the top-n. This file replaces it — behind the
// shouldPruneLocked gate, and provably bit-identical — with a
// three-stage scan:
//
//  1. Bounds. Every posting list carries a precomputed upper bound on
//     the Eq 7/8 weight of any posting in it (listBound, maintained by
//     Add and rebuilt on snapshot load). A query term's contribution to
//     any unit is then at most f_q(t) · bound(t) · pIDF(t), and the
//     terms are processed in descending order of that bound — rare,
//     decisive terms first — so the running threshold tightens as fast
//     as possible.
//  2. Essential prefix. Terms are scanned in full, accumulating partial
//     scores, until the sum of the remaining terms' bounds falls below
//     the running n-th-best partial score (the heap threshold θ): from
//     that point no unseen unit can reach the top-n, so the remaining
//     posting lists — typically the long, low-pIDF ones — are never
//     walked. After each term, accumulated units whose partial score
//     plus the remaining bound sum cannot reach θ are dropped.
//  3. Exact rescore. The surviving candidates (a handful per query) are
//     rescored exactly: every query term in ascending term order, the
//     weight fetched by binary search. This both supplies the skipped
//     lists' contributions to the survivors and reproduces the
//     exhaustive scan's summation order, so the returned scores are
//     bit-identical floats and the (score desc, id asc) tie-break is
//     preserved exactly.
//
// Rank-equivalence argument (DESIGN.md §7 carries the long form):
// partial scores only grow (every contribution is positive), so the
// n-th best partial is a lower bound on the n-th best final score;
// a unit pruned because its upper bound is below that lower bound —
// with pruneGuard absorbing float rounding asymmetry — has a final
// score strictly below the n-th best and cannot even tie into the
// top-n. Everything that survives is rescored exactly.

// Pruning observability. lists_skipped/postings_skipped count the work
// the max-score cutoff avoided (whole posting lists never walked);
// threshold_micros histograms the final heap threshold θ in millionths
// of a score unit — the Fig11c-style view: retrieval cost drops as this
// threshold rises. survivors sizes the exact-rescore stage.
var (
	ctrPruneLists      = obs.NewCounter("index.prune.lists_skipped")
	ctrPrunePostings   = obs.NewCounter("index.prune.postings_skipped")
	histPruneThreshold = obs.NewCountHistogram("index.prune.threshold_micros")
	histPruneSurvivors = obs.NewCountHistogram("index.prune.survivors")
)

// PruneMinUnits is the smallest collection (unit count) the query path
// prunes on; below it the exhaustive scan is used. The value is a
// measurement: BenchmarkQueryPrunedVsExhaustive (benchCorpus's Zipf
// vocabulary, k = 10, gate forced both ways, one CPU, parent and change
// binaries alternated, medians of three), µs per query before and after
// posting lists were split into a TF = 1 run and a remainder and the
// exhaustive drain learnt to walk the cells (PR 25):
//
//	  units   parent: exhaustive  pruned   change: exhaustive  pruned   exhaustive/pruned
//	   8000               50        125                  32       149        0.21×
//	  32000              195        391                 110       463        0.24×
//	 100000              665      1 121                 452     1 266        0.36×
//	 400000            3 358      4 595               3 381     5 454        0.62×
//	1000000            8 285     10 807               8 275    12 123        0.68×
//
// The crossover sat just under 8 000 units until PR 23 made the Eq 7/8
// weight one divide by a per-unit column; since then the exhaustive scan
// wins at every size measured. PR 25 made it a third to two fifths
// faster up to 100 000 units, where the score array and the columns
// still fit the caches, and left it where it was beyond (a posting there
// is two cache misses whichever kernel runs); the pruned scan, which
// walks both runs through one find and one tracker tail and is kept
// correct rather than tuned, got 12–19 % slower. The ratio still closes
// with size (0.21× → 0.68×) but there is no crossover by a million
// units, and the scan is not measured above a million units: the gate is
// set past that, and the pruned scan runs only where a test or benchmark
// lowers it. TestPruningHalvesPostingsAt100k still pins what pruning
// saves in postings (2.5× at 100 000 units); ROADMAP's θ item decides
// whether its candidate handling is made to pay again or the scan is
// deleted. Results are bit-identical either way. It is read at query
// time without synchronization: set it at startup (or in tests before
// spawning queriers), not while serving.
var PruneMinUnits = 1 << 21

// pruneMinFanout gates pruning on topN ≪ collection: a scan asked for a
// quarter of the collection cannot skip much, so it runs exhaustively.
const pruneMinFanout = 4

// pruneGuard deflates the heap threshold in every prune comparison.
// The bound arithmetic dominates the true contributions in exact
// arithmetic; float evaluation of the two sides can disagree by a few
// ULP (relative ~1e-13 even for thousand-term sums), so comparisons
// keep a 1e-9 relative margin — six orders of magnitude wider than the
// drift, six orders tighter than any score gap that matters. A unit is
// pruned only when its upper bound is below θ·pruneGuard, so equality
// with the threshold (a potential id-tie-break winner) always survives
// to the exact rescore.
const pruneGuard = 1 - 1e-9

// boundSlack inflates each stored list bound at evaluation time, for
// the same reason pruneGuard deflates the threshold: the b1 bound and
// the actual Eq 7/8 weight place their roundings differently, so raw
// float comparison could under-dominate by a ULP. The slacked bound
// dominates every posting weight outright (property-tested).
const boundSlack = 1 + 1e-9

// listBound is one posting list's precomputed score upper bound, in two
// halves because the NU length normalization of Eq 7/8 depends on the
// query-time collection average:
//
//	weight(p) = logTF / (denom · nu),  nu = max(1, unique/avgUnique)
//	          = min(logTF/denom, avgUnique · logTF/(denom·unique))
//
// b0 caps the first form (nu = 1), b1 the second's avgUnique-free
// factor; bound() combines them with the average the query resolved.
// Both are maxima of per-posting quantities, so they are maintained
// incrementally by Add in O(unique terms) and rebuilt on load in one
// pass over the postings (install) — exactly, because every operand
// (TF, denom, unique) is persisted.
type listBound struct {
	b0 float64 // max over postings of logTF/denom
	b1 float64 // max over postings of logTF/(denom·unique)
}

// add folds one new posting (logTF, in a unit with the given Eq 7
// denominator and unique-term count) into the bound.
func (lb listBound) add(logTF, denom float64, unique int32) listBound {
	if denom <= 0 {
		return lb
	}
	if c0 := logTF / denom; c0 > lb.b0 {
		lb.b0 = c0
	}
	if c1 := logTF / (denom * float64(unique)); c1 > lb.b1 {
		lb.b1 = c1
	}
	return lb
}

// bound returns the slacked weight upper bound for the collection
// average avgUnique: no posting of the list can have an Eq 7/8 weight
// above it (the domination property test pins this across arbitrary
// Add/Load sequences).
func (lb listBound) bound(avgUnique float64) float64 {
	b := lb.b0
	if avgUnique > 0 {
		if alt := avgUnique * lb.b1; alt < b {
			b = alt
		}
	}
	return b * boundSlack
}

// shouldPruneLocked reports whether the pruned scan is worth engaging
// for a top-n request on this collection. Callers hold the read lock.
func (ix *Index) shouldPruneLocked(topN int) bool {
	return len(ix.denoms) >= PruneMinUnits && len(ix.denoms) >= pruneMinFanout*topN
}

// UpperBoundSum returns Σ_t f_q(t)·bound(t)·pIDF(t) over the probe's
// terms — an upper bound on the score any single unit can reach, and
// the key the matching layer orders Algorithm 1's list probes by
// (descending) so high-impact lists are scanned first. Terms arrive
// in ascending term order with aligned query frequencies and pIDFs,
// exactly as QueryFrozen takes them.
func (ix *Index) UpperBoundSum(terms []int32, qf, idfs []float64, avgUnique float64) float64 {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	var sum float64
	for i, t := range terms {
		if s, ok := ix.slot[t]; ok && idfs[i] != 0 {
			sum += qf[i] * ix.bounds[s].bound(avgUnique) * idfs[i]
		}
	}
	return sum
}

// runningTopK tracks the n-th best partial score over distinct units
// while an accumulator is being updated in place — the job topk.Collector
// cannot do, because a collector has no way to raise the score of an
// entry it already holds (offering again would duplicate the unit and
// inflate the threshold past the true n-th best, breaking the pruning
// safety argument). It is a min-heap of at most k (unit, score) entries;
// an in-heap unit's growing partial updates in place, found by linear
// scan — k is a top-n depth (≤ a few dozen), where scanning a cache-hot
// slice beats any index structure, and offer is reached only for scores
// above the heap root, which gets rarer as the scan proceeds. Scores
// only ever increase, so the root — the threshold — is monotone.
// Callers may skip updates for scores at or below the root: a stale-low
// in-heap entry can only understate the threshold, never overstate it.
type runningTopK struct {
	k int
	h []runningEntry
}

type runningEntry struct {
	unit  int32
	score float64
}

// reset empties the tracker for a probe of depth k, keeping its storage.
func (r *runningTopK) reset(k int) {
	r.k, r.h = k, r.h[:0]
}

// offer records unit's new partial score and returns the current
// threshold: the k-th best score seen, or 0 while fewer than k distinct
// units have been offered.
func (r *runningTopK) offer(unit int32, s float64) float64 {
	held := -1
	for i := range r.h {
		if r.h[i].unit == unit {
			held = i
			break
		}
	}
	if held >= 0 {
		r.h[held].score = s
		r.down(held)
	} else if len(r.h) < r.k {
		r.h = append(r.h, runningEntry{unit: unit, score: s})
		r.up(len(r.h) - 1)
	} else if s > r.h[0].score {
		r.h[0] = runningEntry{unit: unit, score: s}
		r.down(0)
	}
	if len(r.h) == r.k {
		return r.h[0].score
	}
	return 0
}

// admit is the kernels' slow path: it offers a partial their one
// compare let through — unless the unit is excluded, which must not
// inflate the threshold — and returns the higher of theta and the
// tracker's.
func (r *runningTopK) admit(unit int32, s float64, exclude func(unit int) bool, theta float64) float64 {
	if exclude != nil && exclude(int(unit)) {
		return theta
	}
	return max(theta, r.offer(unit, s))
}

func (r *runningTopK) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if r.h[i].score >= r.h[parent].score {
			break
		}
		r.h[i], r.h[parent] = r.h[parent], r.h[i]
		i = parent
	}
}

func (r *runningTopK) down(i int) {
	n := len(r.h)
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		min := left
		if right := left + 1; right < n && r.h[right].score < r.h[left].score {
			min = right
		}
		if r.h[min].score >= r.h[i].score {
			break
		}
		r.h[i], r.h[min] = r.h[min], r.h[i]
		i = min
	}
}

// scanTerm is one query term of a scan that has a posting list and a
// non-zero pIDF.
type scanTerm struct {
	idx int     // position in ascending term order (the summation order)
	ub  float64 // slacked contribution upper bound f_q·bound·pIDF (max-score scan only)
	qf  float64
	idf float64
	list
}

// activeLocked collects into acc.active the probe's terms that have a
// posting list here and a non-zero pIDF, in the order given — ascending
// term order, the summation order — with their contribution bounds when
// the scan will prune, and returns how many postings the lists hold.
// Callers hold the read lock.
func (ix *Index) activeLocked(acc *accumulator, terms []int32, qf, idfs []float64, avgUnique float64, prune bool) (totalPostings int64) {
	active := acc.active[:0]
	for i, t := range terms {
		s, ok := ix.slot[t]
		if !ok || idfs[i] == 0 {
			continue
		}
		at := scanTerm{idx: i, qf: qf[i], idf: idfs[i], list: ix.listAt(s)}
		totalPostings += int64(at.len())
		if prune {
			at.ub = qf[i] * ix.bounds[s].bound(avgUnique) * idfs[i]
		}
		active = append(active, at)
	}
	acc.active = active
	return totalPostings
}

// scanLocked is the one scan behind Query and QueryFrozen (and the
// tests' exhaustive reference). Terms arrive as dictionary ids in
// ascending term order with aligned query frequencies and pIDFs,
// resolved by the caller under the same lock hold or frozen from the
// collection pool. With prune unset it is the exhaustive Eq 9 scan:
// every list is accumulated in term order and the accumulator drained
// into the top-n. With prune set it is the max-score scan described
// above. shared, nil on the unsharded path, is the probe's Theta: the
// exhaustive drain rejects against it as it goes, the max-score scan
// seeds its threshold from it before any partial accumulates, and both
// raise it to their n-th exact score. Callers hold the read lock and
// pass an accumulator acquired under it, which scanLocked releases; only
// shard-local state (postings, units, bounds) and the resolved factors
// are read, so the scatter path's lock discipline carries over unchanged.
func (ix *Index) scanLocked(acc *accumulator, terms []int32, qf, idfs []float64, avgUnique float64, topN int, shared *Theta, exclude func(unit int) bool, tr *obs.Trace, prune bool) []Result {
	cols := ix.normsLocked(avgUnique)
	totalPostings := ix.activeLocked(acc, terms, qf, idfs, avgUnique, prune)
	if !prune {
		candidates, _ := acc.exhaust(cols, len(ix.denoms), totalPostings, topN, shared, exclude)
		ctrScanPostings.Add(totalPostings)
		res := acc.finish(candidates, tr)
		acc.release()
		return res
	}
	norm, inv, active := cols.norm, cols.inv, acc.active

	// Descending upper bound; ascending term position on ties, so the
	// processing order is deterministic.
	slices.SortFunc(active, func(a, b scanTerm) int {
		if a.ub != b.ub {
			return cmp.Compare(b.ub, a.ub)
		}
		return cmp.Compare(a.idx, b.idx)
	})
	// rem[j] = Σ_{i≥j} ub_i: the most any unit can still gain from terms
	// j onward. Summed right-to-left so rem[j] is one float add per term.
	rem := append(acc.rem[:0], make([]float64, len(active)+1)...)
	for j := len(active) - 1; j >= 0; j-- {
		rem[j] = rem[j+1] + active[j].ub
	}
	acc.rem = rem

	// Phase A: scan the essential prefix, maintaining θ — the n-th best
	// partial score over distinct units — exactly, via a position-indexed
	// top-n heap updated as partials grow (a stale-low in-heap copy of a
	// unit only understates θ — safe). θ is monotone, and every partial
	// is a lower bound on that unit's final score (all contributions are
	// positive), so θ never exceeds the final n-th best score: the
	// cutoffs it drives are conservative.
	var theta float64
	if shared != nil {
		theta = shared.Load()
	}
	var scanned int64
	rt := &acc.rt
	rt.reset(topN)
	stop := len(active)
	for j, at := range active {
		if theta > 0 && rem[j] < theta*pruneGuard {
			// No unit — accumulated or unseen — can gain enough from the
			// remaining lists to reach the top-n threshold. Stop scanning;
			// the survivors' exact scores come from the rescore below.
			stop = j
			break
		}
		scanned += int64(at.len())
		theta = acc.accumulateOnes(inv, at.ones, at.qf*at.idf, 1, rt, exclude, theta)
		theta = acc.accumulate(norm, at.more, at.qf*at.idf, 1, rt, exclude, theta)
	}

	// Phase A2, update mode (Turtle & Flood): past the cutoff no unseen
	// unit can reach the top-n, but accumulated units still owe
	// contributions from the remaining lists. Processing those lists
	// against the accumulator — rather than the accumulator against the
	// lists — turns each remaining list from a full scan into |alive|
	// probes, and the alive set shrinks geometrically: before list j a
	// unit survives only if its partial plus rem[j] can still reach θ,
	// and both θ (monotone) and the partials keep moving as probes land.
	// Probe-phase partials accumulate in upper-bound order, so they are
	// pruning/threshold material only; the exact rescore below redoes the
	// survivors in the summation order the exhaustive scan uses. The
	// drain hands the accumulated units over in ascending unit order —
	// the order the posting lists are stored in — so the update-mode
	// merges walk both sides monotonically.
	candidates := acc.drain(len(ix.denoms), theta, rem[stop], exclude)
	alive, aliveScore := acc.alive, acc.ascore
	var probed int64 // update-mode contributions actually computed
	for j := stop; j < len(active); j++ {
		at := active[j]
		guard := theta * pruneGuard
		keep := 0
		for i, u := range alive {
			s := aliveScore[i]
			if s+rem[j] < guard {
				continue
			}
			alive[keep], aliveScore[keep] = u, s
			keep++
		}
		alive, aliveScore = alive[:keep], aliveScore[:keep]
		if keep == 0 {
			break
		}
		c := at.qf * at.idf
		// Dense list relative to the alive set: one linear merge over both
		// runs beats per-unit binary searches.
		merge := at.len() < 4*keep
		ones, more := at.ones, at.more
		for i, u := range alive {
			var tf int32
			if merge {
				for len(ones) > 0 && ones[0] < u {
					ones = ones[1:]
				}
				for len(more) > 0 && more[0].Unit < u {
					more = more[1:]
				}
				if len(ones) > 0 && ones[0] == u {
					tf = 1
				} else if len(more) > 0 && more[0].Unit == u {
					tf = more[0].TF
				}
			} else {
				tf, _ = at.find(u)
			}
			if tf == 0 { // absent: a posting's TF is at least 1
				continue
			}
			s := aliveScore[i] + c*(logTF(tf)/norm[u])
			aliveScore[i] = s
			probed++
			if t := rt.offer(u, s); t > theta {
				theta = t
			}
		}
	}
	// Final cut: everything is accounted for (rem = 0), so only units
	// whose full — approximate, but guard-margined — score reaches θ can
	// place in the top-n.
	guard := theta * pruneGuard
	keep := 0
	for i, u := range alive {
		if theta > 0 && aliveScore[i] < guard {
			continue
		}
		alive[keep] = u
		keep++
	}
	alive = alive[:keep]

	listsSkipped := int64(len(active) - stop)
	postingsSkipped := -probed
	for _, at := range active[stop:] {
		postingsSkipped += int64(at.len())
	}

	// Phase B: exact rescore of the survivors, in ascending term order —
	// the exhaustive scan's summation sequence — with each weight fetched
	// by binary search — and offered to the top-n heap finish orders.
	slices.SortFunc(active, func(a, b scanTerm) int { return cmp.Compare(a.idx, b.idx) })
	top := acc.top[:0]
	for _, u := range alive {
		var s float64
		for _, at := range active {
			tf, ok := at.find(u)
			if !ok {
				continue
			}
			scanned++
			s += at.qf * (logTF(tf) / norm[u]) * at.idf
		}
		if s > 0 {
			top = offerResult(top, topN, Result{Unit: int(u), Score: s})
		}
	}
	acc.top = top
	if shared != nil && len(top) == topN {
		shared.Raise(top[0].Score) // survivors are non-excluded: see Theta
	}

	ctrScanPostings.Add(scanned + probed)
	ctrPruneLists.Add(listsSkipped)
	ctrPrunePostings.Add(postingsSkipped)
	histPruneThreshold.Observe(int64(theta * 1e6))
	histPruneSurvivors.Observe(int64(len(alive)))
	res := acc.finish(candidates, tr)
	if tr != nil {
		tr.Event("index.prune",
			obs.N("lists_skipped", listsSkipped),
			obs.N("postings_skipped", postingsSkipped),
			obs.N("survivors", int64(len(alive))),
			obs.N("postings_total", totalPostings),
			obs.N("threshold_micros", int64(theta*1e6)))
	}
	acc.release()
	return res
}
