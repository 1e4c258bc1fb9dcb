package topk

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

func TestResultsBestFirst(t *testing.T) {
	c := New(3)
	for id, s := range []float64{0.1, 0.9, 0.5, 0.7, 0.3} {
		c.Offer(id, s)
	}
	want := []Item{{ID: 1, Score: 0.9}, {ID: 3, Score: 0.7}, {ID: 2, Score: 0.5}}
	if got := c.Results(); !reflect.DeepEqual(got, want) {
		t.Errorf("Results() = %v, want %v", got, want)
	}
}

func TestTiesPreferLowerID(t *testing.T) {
	// All candidates share one score: the k retained must be the k lowest
	// ids, ascending, regardless of insertion order.
	ids := []int{7, 2, 9, 4, 1, 8, 3}
	c := New(3)
	for _, id := range ids {
		c.Offer(id, 1.0)
	}
	want := []Item{{ID: 1, Score: 1}, {ID: 2, Score: 1}, {ID: 3, Score: 1}}
	if got := c.Results(); !reflect.DeepEqual(got, want) {
		t.Errorf("tied Results() = %v, want %v", got, want)
	}
}

func TestDeterministicAcrossInsertionOrders(t *testing.T) {
	// Mixed ties and distinct scores, offered in 50 shuffled orders, must
	// always produce the identical ranking.
	items := []Item{
		{0, 0.5}, {1, 0.5}, {2, 0.5}, {3, 0.8}, {4, 0.8},
		{5, 0.2}, {6, 0.9}, {7, 0.5}, {8, 0.1}, {9, 0.8},
	}
	var want []Item
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		shuffled := append([]Item(nil), items...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		c := New(5)
		for _, it := range shuffled {
			c.Offer(it.ID, it.Score)
		}
		got := c.Results()
		if want == nil {
			want = got
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: Results() = %v, want %v", trial, got, want)
		}
	}
	expect := []Item{{6, 0.9}, {3, 0.8}, {4, 0.8}, {9, 0.8}, {0, 0.5}}
	if !reflect.DeepEqual(want, expect) {
		t.Errorf("ranking = %v, want %v", want, expect)
	}
}

func TestScoreCollisions(t *testing.T) {
	// Deliberate score collisions at every interesting position: the
	// ordering contract is (score desc, id asc), and in particular the
	// eviction gate must apply it — a tied candidate arriving after the
	// heap is full displaces a retained item iff its id is lower.
	cases := []struct {
		name string
		k    int
		in   []Item
		want []Item
	}{
		{
			name: "tie at the cut line keeps lower id",
			k:    2,
			in:   []Item{{5, 0.7}, {1, 0.3}, {3, 0.3}},
			want: []Item{{5, 0.7}, {1, 0.3}},
		},
		{
			name: "late tied candidate with lower id evicts",
			k:    2,
			in:   []Item{{5, 0.7}, {9, 0.3}, {2, 0.3}},
			want: []Item{{5, 0.7}, {2, 0.3}},
		},
		{
			name: "late tied candidate with higher id is dropped",
			k:    2,
			in:   []Item{{5, 0.7}, {2, 0.3}, {9, 0.3}},
			want: []Item{{5, 0.7}, {2, 0.3}},
		},
		{
			name: "three-way collision straddling the cut",
			k:    2,
			in:   []Item{{8, 0.5}, {4, 0.5}, {6, 0.5}},
			want: []Item{{4, 0.5}, {6, 0.5}},
		},
		{
			name: "collision above a distinct tail",
			k:    3,
			in:   []Item{{7, 0.9}, {2, 0.9}, {5, 0.1}, {1, 0.4}},
			want: []Item{{2, 0.9}, {7, 0.9}, {1, 0.4}},
		},
		{
			name: "duplicate id and score offered twice is retained twice",
			k:    3,
			in:   []Item{{4, 0.6}, {4, 0.6}, {1, 0.2}},
			want: []Item{{4, 0.6}, {4, 0.6}, {1, 0.2}},
		},
		{
			name: "all collide k equals input",
			k:    4,
			in:   []Item{{3, 1}, {0, 1}, {2, 1}, {1, 1}},
			want: []Item{{0, 1}, {1, 1}, {2, 1}, {3, 1}},
		},
		{
			name: "zero scores collide",
			k:    2,
			in:   []Item{{6, 0}, {3, 0}, {4, 0}},
			want: []Item{{3, 0}, {4, 0}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := New(tc.k)
			for _, it := range tc.in {
				c.Offer(it.ID, it.Score)
			}
			if got := c.Results(); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("Results() = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestAgainstSortReference(t *testing.T) {
	// Randomized cross-check against the obvious reference (full sort
	// under the documented ordering, take k). Scores are drawn from a
	// tiny set so collisions dominate, and k sweeps past the input size.
	rng := rand.New(rand.NewSource(7))
	scores := []float64{0.1, 0.5, 0.5, 0.9}
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		k := rng.Intn(12) + 1
		in := make([]Item, n)
		for i := range in {
			in[i] = Item{ID: rng.Intn(20), Score: scores[rng.Intn(len(scores))]}
		}
		ref := append([]Item(nil), in...)
		sort.SliceStable(ref, func(i, j int) bool { return beats(ref[i], ref[j]) })
		if len(ref) > k {
			ref = ref[:k]
		}
		c := New(k)
		for _, it := range in {
			c.Offer(it.ID, it.Score)
		}
		got := c.Results()
		if len(got) == 0 && len(ref) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("trial %d (n=%d k=%d): Results() = %v, want %v\ninput: %v", trial, n, k, got, ref, in)
		}
	}
}

func TestFewerCandidatesThanK(t *testing.T) {
	c := New(10)
	c.Offer(5, 2)
	c.Offer(3, 1)
	want := []Item{{ID: 5, Score: 2}, {ID: 3, Score: 1}}
	if got := c.Results(); !reflect.DeepEqual(got, want) {
		t.Errorf("Results() = %v, want %v", got, want)
	}
}

func TestZeroK(t *testing.T) {
	c := New(0)
	c.Offer(1, 1)
	if got := c.Results(); len(got) != 0 {
		t.Errorf("New(0).Results() = %v, want empty", got)
	}
}

func TestReuseAfterResults(t *testing.T) {
	c := New(2)
	c.Offer(1, 1)
	c.Results()
	c.Offer(2, 5)
	c.Offer(3, 4)
	c.Offer(4, 9)
	want := []Item{{ID: 4, Score: 9}, {ID: 2, Score: 5}}
	if got := c.Results(); !reflect.DeepEqual(got, want) {
		t.Errorf("reused Results() = %v, want %v", got, want)
	}
}
