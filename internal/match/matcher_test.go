package match

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The tests in this file hold Algorithm 2's final selection — TopKScores,
// and InsertTop under it — to its one ordering: score descending, lower
// document id first on equal scores, whatever order candidates arrive in.

// insertAll folds InsertTop over in.
func insertAll(in []Result, k int) []Result {
	var top []Result
	for _, r := range in {
		top = InsertTop(top, k, r)
	}
	return top
}

// scoreMap is in as TopKScores takes it; the ids must be distinct.
func scoreMap(in []Result) map[int]float64 {
	m := make(map[int]float64, len(in))
	for _, r := range in {
		m[r.DocID] = r.Score
	}
	return m
}

func TestTopKScoresBestFirst(t *testing.T) {
	scores := map[int]float64{0: 0.1, 1: 0.9, 2: 0.5, 3: 0.7, 4: 0.3}
	want := []Result{{DocID: 1, Score: 0.9}, {DocID: 3, Score: 0.7}, {DocID: 2, Score: 0.5}}
	if got := TopKScores(scores, 3, -1); !reflect.DeepEqual(got, want) {
		t.Errorf("TopKScores = %v, want %v", got, want)
	}
}

func TestTopKScoresTiesPreferLowerID(t *testing.T) {
	// All candidates share one score: the k kept must be the k lowest ids,
	// ascending, whatever order they are offered in.
	ids := []int{7, 2, 9, 4, 1, 8, 3}
	want := []Result{{DocID: 1, Score: 1}, {DocID: 2, Score: 1}, {DocID: 3, Score: 1}}
	in := make([]Result, len(ids))
	for i, id := range ids {
		in[i] = Result{DocID: id, Score: 1}
	}
	if got := insertAll(in, 3); !reflect.DeepEqual(got, want) {
		t.Errorf("InsertTop over ties = %v, want %v", got, want)
	}
	if got := TopKScores(scoreMap(in), 3, -1); !reflect.DeepEqual(got, want) {
		t.Errorf("TopKScores over ties = %v, want %v", got, want)
	}
}

func TestTopKScoresInsertionOrder(t *testing.T) {
	// Mixed ties and distinct scores, offered in 50 shuffled orders (and
	// through maps built in those orders), must rank identically.
	items := []Result{
		{0, 0.5}, {1, 0.5}, {2, 0.5}, {3, 0.8}, {4, 0.8},
		{5, 0.2}, {6, 0.9}, {7, 0.5}, {8, 0.1}, {9, 0.8},
	}
	want := []Result{{6, 0.9}, {3, 0.8}, {4, 0.8}, {9, 0.8}, {0, 0.5}}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		shuffled := append([]Result(nil), items...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		if got := insertAll(shuffled, 5); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: InsertTop = %v, want %v", trial, got, want)
		}
		if got := TopKScores(scoreMap(shuffled), 5, -1); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: TopKScores = %v, want %v", trial, got, want)
		}
	}
}

func TestTopKScoresCollisions(t *testing.T) {
	// Score collisions at every interesting place: a tied candidate that
	// arrives once the list is full displaces a kept one iff its id is
	// lower.
	cases := []struct {
		name string
		k    int
		in   []Result
		want []Result
	}{
		{
			name: "tie at the cut line keeps lower id",
			k:    2,
			in:   []Result{{5, 0.7}, {1, 0.3}, {3, 0.3}},
			want: []Result{{5, 0.7}, {1, 0.3}},
		},
		{
			name: "late tied candidate with lower id evicts",
			k:    2,
			in:   []Result{{5, 0.7}, {9, 0.3}, {2, 0.3}},
			want: []Result{{5, 0.7}, {2, 0.3}},
		},
		{
			name: "late tied candidate with higher id is dropped",
			k:    2,
			in:   []Result{{5, 0.7}, {2, 0.3}, {9, 0.3}},
			want: []Result{{5, 0.7}, {2, 0.3}},
		},
		{
			name: "three-way collision straddling the cut",
			k:    2,
			in:   []Result{{8, 0.5}, {4, 0.5}, {6, 0.5}},
			want: []Result{{4, 0.5}, {6, 0.5}},
		},
		{
			name: "collision above a distinct tail",
			k:    3,
			in:   []Result{{7, 0.9}, {2, 0.9}, {5, 0.1}, {1, 0.4}},
			want: []Result{{2, 0.9}, {7, 0.9}, {1, 0.4}},
		},
		{
			name: "duplicate id and score offered twice is retained twice",
			k:    3,
			in:   []Result{{4, 0.6}, {4, 0.6}, {1, 0.2}},
			want: []Result{{4, 0.6}, {4, 0.6}, {1, 0.2}},
		},
		{
			name: "all collide k equals input",
			k:    4,
			in:   []Result{{3, 1}, {0, 1}, {2, 1}, {1, 1}},
			want: []Result{{0, 1}, {1, 1}, {2, 1}, {3, 1}},
		},
		{
			name: "zero scores collide",
			k:    2,
			in:   []Result{{6, 0}, {3, 0}, {4, 0}},
			want: []Result{{3, 0}, {4, 0}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := insertAll(tc.in, tc.k); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("InsertTop = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestTopKScoresAgainstSortReference(t *testing.T) {
	// The obvious reference — sort everything under Before, cut to k —
	// over scores from a tiny set, so collisions dominate, and k sweeping
	// past the input size.
	rng := rand.New(rand.NewSource(7))
	scores := []float64{-0.5, 0, 0.1, 0.5, 0.5, 0.9}
	for trial := 0; trial < 200; trial++ {
		k := rng.Intn(12) + 1
		m := make(map[int]float64)
		for n := rng.Intn(40); n > 0; n-- {
			m[rng.Intn(30)] = scores[rng.Intn(len(scores))]
		}
		exclude := rng.Intn(30)
		ref := []Result{}
		for d, s := range m {
			if d != exclude && s > 0 {
				ref = append(ref, Result{DocID: d, Score: s})
			}
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i].Before(ref[j]) })
		ref = ref[:min(k, len(ref))]
		if got := TopKScores(m, k, exclude); !reflect.DeepEqual(got, ref) {
			t.Fatalf("trial %d (k=%d, excluding %d): TopKScores = %v, want %v\ninput: %v", trial, k, exclude, got, ref, m)
		}
	}
}

func TestTopKScoresFewerCandidatesThanK(t *testing.T) {
	want := []Result{{DocID: 5, Score: 2}, {DocID: 3, Score: 1}}
	if got := TopKScores(map[int]float64{3: 1, 5: 2}, 10, -1); !reflect.DeepEqual(got, want) {
		t.Errorf("TopKScores = %v, want %v", got, want)
	}
}

func TestTopKScoresZeroK(t *testing.T) {
	for _, k := range []int{0, -1} {
		if got := TopKScores(map[int]float64{1: 1}, k, -1); len(got) != 0 {
			t.Errorf("TopKScores with k = %d: %v, want empty", k, got)
		}
		if got := InsertTop(nil, k, Result{DocID: 1, Score: 1}); len(got) != 0 {
			t.Errorf("InsertTop with k = %d: %v, want empty", k, got)
		}
	}
}

// topSink keeps BenchmarkTopKScores' calls from being optimized away.
var topSink []Result

// BenchmarkTopKScores is Algorithm 2's final selection at the size a
// served query has: k = 10 out of an 80-candidate score map.
func BenchmarkTopKScores(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	scores := make(map[int]float64, 80)
	for len(scores) < 80 {
		scores[rng.Intn(10000)] = float64(rng.Intn(50)) / 7
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		topSink = TopKScores(scores, 10, -1)
	}
}
