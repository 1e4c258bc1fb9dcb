package eval

import (
	"math"
	"testing"
	"testing/quick"
)

func TestWindowDiffPerfect(t *testing.T) {
	ref := []int{3, 6}
	if got := windowDiff(ref, ref, 9, 2); got != 0 {
		t.Errorf("windowDiff(identical) = %v, want 0", got)
	}
}

func TestWindowDiffTotalMiss(t *testing.T) {
	// Reference has borders everywhere, hypothesis nowhere: nearly every
	// window disagrees.
	ref := []int{1, 2, 3, 4, 5, 6, 7}
	got := windowDiff(ref, nil, 8, 2)
	if got < 0.9 {
		t.Errorf("windowDiff(all vs none) = %v, want near 1", got)
	}
}

func TestWindowDiffNearMiss(t *testing.T) {
	// An off-by-one border is better than a missing border.
	ref := []int{5}
	near := windowDiff(ref, []int{6}, 10, 3)
	missing := windowDiff(ref, nil, 10, 3)
	if near >= missing {
		t.Errorf("near miss %v should score below total miss %v", near, missing)
	}
}

func TestWindowDiffEdgeCases(t *testing.T) {
	if got := windowDiff(nil, nil, 0, 2); got != 0 {
		t.Error("empty doc should be 0")
	}
	if got := windowDiff(nil, nil, 1, 2); got != 0 {
		t.Error("single-unit doc should be 0")
	}
	// Out-of-range borders are ignored.
	if got := windowDiff([]int{0, 99, -3}, nil, 5, 2); got != 0 {
		t.Errorf("out-of-range borders should be dropped, got %v", got)
	}
	// Oversized window clamps.
	if got := windowDiff([]int{2}, []int{2}, 4, 100); got != 0 {
		t.Errorf("clamped window on identical segmentations = %v", got)
	}
}

// Property: windowDiff is within [0,1] and zero for identical inputs.
func TestWindowDiffProperty(t *testing.T) {
	f := func(refRaw, hypRaw []uint8, n8, k8 uint8) bool {
		n := 2 + int(n8%30)
		k := 1 + int(k8%10)
		ref := toBorders(refRaw, n)
		hyp := toBorders(hypRaw, n)
		d := windowDiff(ref, hyp, n, k)
		if d < 0 || d > 1 {
			return false
		}
		if windowDiff(ref, ref, n, k) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func toBorders(raw []uint8, n int) []int {
	var out []int
	for _, r := range raw {
		out = append(out, 1+int(r)%(n-1))
	}
	return out
}

func TestPk(t *testing.T) {
	ref := []int{5}
	if got := pk(ref, ref, 10, 3); got != 0 {
		t.Errorf("pk(identical) = %v", got)
	}
	worse := pk(ref, nil, 10, 3)
	if worse <= 0 {
		t.Errorf("pk(missing border) = %v, want > 0", worse)
	}
}

func TestMultWinDiff(t *testing.T) {
	refs := [][]int{{3, 6}, {3, 7}}
	if got := MultWinDiff(refs, []int{3, 6}, 9); got < 0 || got > 1 {
		t.Errorf("MultWinDiff out of range: %v", got)
	}
	perfect := MultWinDiff([][]int{{4}}, []int{4}, 8)
	if perfect != 0 {
		t.Errorf("MultWinDiff single perfect ref = %v", perfect)
	}
	// Hypothesis matching one annotator beats matching neither.
	match := MultWinDiff(refs, []int{3, 6}, 9)
	miss := MultWinDiff(refs, []int{1, 8}, 9)
	if match >= miss {
		t.Errorf("matching hypothesis %v should beat missing one %v", match, miss)
	}
	if got := MultWinDiff(nil, []int{1}, 9); got != 0 {
		t.Error("no references should give 0")
	}
}

func TestFleissKappaPerfectAgreement(t *testing.T) {
	// 4 items, 3 raters, everyone agrees.
	counts := [][]int{{3, 0}, {0, 3}, {3, 0}, {0, 3}}
	kappa, obs := FleissKappa(counts)
	if obs != 1 {
		t.Errorf("observed = %v, want 1", obs)
	}
	if math.Abs(kappa-1) > 1e-9 {
		t.Errorf("kappa = %v, want 1", kappa)
	}
}

func TestFleissKappaChanceAgreement(t *testing.T) {
	// Maximally split raters: observed pairwise agreement is low and kappa
	// near or below 0.
	counts := [][]int{{2, 2}, {2, 2}, {2, 2}}
	kappa, obs := FleissKappa(counts)
	if obs >= 0.5 {
		t.Errorf("observed = %v, want < 0.5", obs)
	}
	if kappa > 0 {
		t.Errorf("kappa = %v, want <= 0", kappa)
	}
}

func TestFleissKappaWikipediaExample(t *testing.T) {
	// The classic worked example (Wikipedia, Fleiss 1971): 10 items, 14
	// raters, 5 categories; kappa ≈ 0.210.
	counts := [][]int{
		{0, 0, 0, 0, 14},
		{0, 2, 6, 4, 2},
		{0, 0, 3, 5, 6},
		{0, 3, 9, 2, 0},
		{2, 2, 8, 1, 1},
		{7, 7, 0, 0, 0},
		{3, 2, 6, 3, 0},
		{2, 5, 3, 2, 2},
		{6, 5, 2, 1, 0},
		{0, 2, 2, 3, 7},
	}
	kappa, _ := FleissKappa(counts)
	if math.Abs(kappa-0.210) > 0.005 {
		t.Errorf("kappa = %v, want ≈ 0.210", kappa)
	}
}

func TestFleissKappaDegenerate(t *testing.T) {
	if kappa, obs := FleissKappa(nil); kappa != 0 || obs != 0 {
		t.Error("empty matrix should give 0,0")
	}
	if kappa, obs := FleissKappa([][]int{{1, 0}}); kappa != 0 || obs != 0 {
		t.Error("single rater should give 0,0")
	}
	// All raters always pick category 0 → Pe = 1, perfect observed.
	kappa, obs := FleissKappa([][]int{{3, 0}, {3, 0}})
	if obs != 1 || kappa != 1 {
		t.Errorf("uniform perfect agreement: kappa=%v obs=%v", kappa, obs)
	}
}

func TestBorderAgreement(t *testing.T) {
	candidates := []int{100, 200, 300}
	// Three annotators agree on a border near 100 and 300, none at 200.
	annotations := [][]int{
		{98, 302},
		{105, 295},
		{101, 300},
	}
	kappa, obs := borderAgreement(candidates, annotations, 10)
	if obs != 1 {
		t.Errorf("observed = %v, want 1 (perfect within tolerance)", obs)
	}
	if kappa != 1 {
		t.Errorf("kappa = %v, want 1", kappa)
	}
	// Tighter tolerance breaks agreement on the jittered borders.
	_, obsTight := borderAgreement(candidates, annotations, 2)
	if obsTight >= 1 {
		t.Errorf("tight-tolerance observed = %v, want < 1", obsTight)
	}
	if k, o := borderAgreement(nil, annotations, 10); k != 0 || o != 0 {
		t.Error("no candidates should give 0,0")
	}
	if k, o := borderAgreement(candidates, annotations[:1], 10); k != 0 || o != 0 {
		t.Error("single annotator should give 0,0")
	}
}

func TestAgreementToleranceMonotone(t *testing.T) {
	// Larger offsets can only increase marked counts; observed agreement in
	// this jittered setup should not decrease (Table 2's pattern).
	candidates := []int{100, 250, 400}
	annotations := [][]int{
		{92, 260, 395},
		{108, 246, 430},
		{99, 238, 409},
	}
	prev := -1.0
	for _, off := range []int{10, 25, 40} {
		_, obs := borderAgreement(candidates, annotations, off)
		if obs < prev {
			t.Errorf("observed agreement decreased at offset %d: %v < %v", off, obs, prev)
		}
		prev = obs
	}
}

func TestMultiDocBorderAgreement(t *testing.T) {
	docs := []AgreementDoc{
		{Candidates: []int{50, 150}, Annotations: [][]int{{49, 151}, {52, 148}}},
		{Candidates: []int{80}, Annotations: [][]int{{81}, {79}}},
		{Candidates: nil, Annotations: [][]int{{1}, {2}}},   // skipped
		{Candidates: []int{10}, Annotations: [][]int{{10}}}, // skipped: 1 annotator
	}
	kappa, obs := MultiDocBorderAgreement(docs, 5)
	if obs != 1 || kappa != 1 {
		t.Errorf("pooled agreement kappa=%v obs=%v, want 1,1", kappa, obs)
	}
}

func TestPrecision(t *testing.T) {
	rel := map[int]bool{1: true, 3: true, 5: true}
	if got := Precision([]int{1, 2, 3, 4}, rel); got != 0.5 {
		t.Errorf("Precision = %v, want 0.5", got)
	}
	if got := Precision(nil, rel); got != 0 {
		t.Errorf("Precision(empty) = %v, want 0", got)
	}
	if got := precisionAtK([]int{1, 3, 5, 2, 4}, rel, 3); got != 1 {
		t.Errorf("precisionAtK = %v, want 1", got)
	}
	if got := precisionAtK([]int{1}, rel, 5); got != 1 {
		t.Errorf("precisionAtK with short list = %v, want 1", got)
	}
}

func TestMeanPrecision(t *testing.T) {
	per := []float64{1, 0, 0.5, 0}
	if got := MeanPrecision(per); got != 0.375 {
		t.Errorf("MeanPrecision = %v, want 0.375", got)
	}
	if MeanPrecision(nil) != 0 {
		t.Error("empty input should give 0")
	}
}

func TestPool(t *testing.T) {
	got := pool([]int{1, 2, 3}, []int{3, 4}, []int{1, 5})
	want := []int{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("Pool = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Pool = %v, want %v", got, want)
		}
	}
}

func TestBoundaryPRFPerfect(t *testing.T) {
	p, r, f := boundaryPRF([]int{3, 6}, []int{3, 6}, 10, 0)
	if p != 1 || r != 1 || f != 1 {
		t.Errorf("perfect match: %v %v %v", p, r, f)
	}
}

func TestBoundaryPRFTolerance(t *testing.T) {
	// Off-by-one borders match at tolerance 1 but not 0.
	p0, _, _ := boundaryPRF([]int{3, 6}, []int{4, 7}, 10, 0)
	if p0 != 0 {
		t.Errorf("tolerance 0 precision = %v, want 0", p0)
	}
	p1, r1, f1 := boundaryPRF([]int{3, 6}, []int{4, 7}, 10, 1)
	if p1 != 1 || r1 != 1 || f1 != 1 {
		t.Errorf("tolerance 1: %v %v %v, want perfect", p1, r1, f1)
	}
}

func TestBoundaryPRFSpuriousAndMissing(t *testing.T) {
	// Hypothesis has one true border and one spurious; misses one.
	p, r, f := boundaryPRF([]int{3, 6}, []int{3, 8}, 10, 0)
	if p != 0.5 || r != 0.5 {
		t.Errorf("P=%v R=%v, want 0.5 each", p, r)
	}
	if f != 0.5 {
		t.Errorf("F1 = %v, want 0.5", f)
	}
	// Over-segmentation: precision drops, recall stays.
	p, r, _ = boundaryPRF([]int{5}, []int{2, 5, 8}, 10, 0)
	if r != 1 {
		t.Errorf("recall = %v, want 1", r)
	}
	if p >= 0.5 {
		t.Errorf("precision = %v, want 1/3", p)
	}
}

func TestBoundaryPRFEmptyCases(t *testing.T) {
	if p, r, f := boundaryPRF(nil, nil, 5, 1); p != 1 || r != 1 || f != 1 {
		t.Error("both empty should be perfect")
	}
	if p, r, f := boundaryPRF([]int{2}, nil, 5, 1); p != 0 || r != 0 || f != 0 {
		t.Error("empty hypothesis vs non-empty reference should be 0")
	}
	if p, _, _ := boundaryPRF(nil, []int{2}, 5, 1); p != 0 {
		t.Error("spurious-only hypothesis should have precision 0")
	}
}

func TestBoundaryPRFGreedyMatchingIsOneToOne(t *testing.T) {
	// Two hypothesis borders near one reference: only one may match.
	p, r, _ := boundaryPRF([]int{5}, []int{4, 6}, 10, 2)
	if r != 1 {
		t.Errorf("recall = %v, want 1", r)
	}
	if p != 0.5 {
		t.Errorf("precision = %v, want 0.5 (one-to-one matching)", p)
	}
}

// boundaryPRF computes precision, recall and F1 of hypothesis borders
// against reference borders over a document of n units. A hypothesis
// border matches an unmatched reference border within ±tolerance units
// (greedy nearest-first matching; each border matches at most once).
func boundaryPRF(ref, hyp []int, n, tolerance int) (precision, recall, f1 float64) {
	refB := borderList(ref, n)
	hypB := borderList(hyp, n)
	if len(hypB) == 0 && len(refB) == 0 {
		return 1, 1, 1
	}
	if len(hypB) == 0 || len(refB) == 0 {
		return 0, 0, 0
	}
	matchedRef := make([]bool, len(refB))
	matches := 0
	for _, h := range hypB {
		best, bestD := -1, tolerance+1
		for i, r := range refB {
			if matchedRef[i] {
				continue
			}
			d := h - r
			if d < 0 {
				d = -d
			}
			if d < bestD {
				best, bestD = i, d
			}
		}
		if best >= 0 {
			matchedRef[best] = true
			matches++
		}
	}
	precision = float64(matches) / float64(len(hypB))
	recall = float64(matches) / float64(len(refB))
	if precision+recall == 0 {
		return precision, recall, 0
	}
	f1 = 2 * precision * recall / (precision + recall)
	return precision, recall, f1
}

// precisionAtK truncates the retrieval to its first k elements before
// computing precision; the paper's users evaluated top-5 lists.
func precisionAtK(retrieved []int, relevant map[int]bool, k int) float64 {
	if k < len(retrieved) {
		retrieved = retrieved[:k]
	}
	return Precision(retrieved, relevant)
}

// pool merges several systems' retrievals for one query into a single
// deduplicated judging pool, preserving first-seen order (Sec 9.2.1 uses
// pooling for the TripAdvisor judgments).
func pool(lists ...[]int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, list := range lists {
		for _, id := range list {
			if !seen[id] {
				seen[id] = true
				out = append(out, id)
			}
		}
	}
	return out
}

// pk computes Beeferman's pk metric: the probability that two units k apart
// are incorrectly classified as being in the same or different segments.
func pk(ref, hyp []int, n, k int) float64 {
	if n <= 1 {
		return 0
	}
	if k < 1 {
		k = 1
	}
	if k >= n {
		k = n - 1
	}
	refSeg := segmentIDs(ref, n)
	hypSeg := segmentIDs(hyp, n)
	errors, windows := 0, 0
	for i := 0; i+k < n; i++ {
		sameRef := refSeg[i] == refSeg[i+k]
		sameHyp := hypSeg[i] == hypSeg[i+k]
		if sameRef != sameHyp {
			errors++
		}
		windows++
	}
	if windows == 0 {
		return 0
	}
	return float64(errors) / float64(windows)
}
