package lda

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// twoTopicCorpus builds documents drawn from two disjoint vocabularies.
func twoTopicCorpus(nPer int) [][]string {
	hw := []string{"raid", "disk", "controller", "driver", "bios", "firmware"}
	travel := []string{"hotel", "pool", "beach", "breakfast", "room", "staff"}
	var docs [][]string
	for i := 0; i < nPer; i++ {
		var a, b []string
		for j := 0; j < 8; j++ {
			a = append(a, hw[(i+j)%len(hw)])
			b = append(b, travel[(i*3+j)%len(travel)])
		}
		docs = append(docs, a, b)
	}
	return docs
}

func TestTrainSeparatesTopics(t *testing.T) {
	docs := twoTopicCorpus(20)
	m, err := Train(docs, Config{K: 2, Iterations: 150, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Hardware docs (even indices) should be dominated by one topic, travel
	// docs (odd) by the other.
	hwTopic := argmax(m.DocTopics(0))
	agree := 0
	for d := 0; d < m.NumDocs(); d++ {
		top := argmax(m.DocTopics(d))
		if (d%2 == 0) == (top == hwTopic) {
			agree++
		}
	}
	if frac := float64(agree) / float64(m.NumDocs()); frac < 0.9 {
		t.Errorf("topic separation %.2f < 0.9", frac)
	}
}

func TestTrainDeterministic(t *testing.T) {
	docs := twoTopicCorpus(5)
	m1, err := Train(docs, Config{K: 2, Iterations: 30, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(docs, Config{K: 2, Iterations: 30, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < m1.NumDocs(); d++ {
		a, b := m1.DocTopics(d), m2.DocTopics(d)
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("same seed produced different models")
			}
		}
	}
}

func TestDocTopicsAreDistributions(t *testing.T) {
	docs := twoTopicCorpus(10)
	m, err := Train(docs, Config{K: 3, Iterations: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < m.NumDocs(); d++ {
		var sum float64
		for _, p := range m.DocTopics(d) {
			if p < 0 {
				t.Fatal("negative probability")
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("doc %d topics sum to %v", d, sum)
		}
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(nil, Config{K: 2}); err == nil {
		t.Error("Train(nil) should fail")
	}
	if _, err := Train([][]string{{}, {}}, Config{K: 2}); err == nil {
		t.Error("Train with empty vocabulary should fail")
	}
}

func TestInfer(t *testing.T) {
	docs := twoTopicCorpus(20)
	m, err := Train(docs, Config{K: 2, Iterations: 150, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	hwTopic := argmax(m.DocTopics(0))
	theta := m.infer([]string{"raid", "disk", "driver", "bios", "raid"}, 50, 3)
	if argmax(theta) != hwTopic {
		t.Errorf("inferred topic %d for hardware text, want %d (theta=%v)", argmax(theta), hwTopic, theta)
	}
	var sum float64
	for _, p := range theta {
		sum += p
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("inferred distribution sums to %v", sum)
	}
	// Unknown vocabulary → uniform.
	u := m.infer([]string{"zzz", "qqq"}, 10, 1)
	for _, p := range u {
		if math.Abs(p-0.5) > 1e-9 {
			t.Errorf("unknown-word inference not uniform: %v", u)
		}
	}
}

func TestTopWords(t *testing.T) {
	docs := twoTopicCorpus(20)
	m, err := Train(docs, Config{K: 2, Iterations: 150, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	hwTopic := argmax(m.DocTopics(0))
	top := m.topWords(hwTopic, 3)
	if len(top) != 3 {
		t.Fatalf("topWords returned %d words", len(top))
	}
	hw := map[string]bool{"raid": true, "disk": true, "controller": true,
		"driver": true, "bios": true, "firmware": true}
	for _, w := range top {
		if !hw[w] {
			t.Errorf("top hardware-topic word %q is not hardware vocabulary", w)
		}
	}
	if m.topWords(-1, 3) != nil || m.topWords(99, 3) != nil {
		t.Error("out-of-range topic should return nil")
	}
}

func TestJSDivergence(t *testing.T) {
	p := []float64{1, 0}
	q := []float64{0, 1}
	if d := jsDivergence(p, q); math.Abs(d-1) > 1e-9 {
		t.Errorf("JSD of disjoint distributions = %v, want 1", d)
	}
	if d := jsDivergence(p, p); d != 0 {
		t.Errorf("JSD(p,p) = %v, want 0", d)
	}
	if d := jsDivergence(p, []float64{0.5}); d != 1 {
		t.Errorf("JSD of mismatched lengths = %v, want 1", d)
	}
	if s := Similarity(p, p); s != 1 {
		t.Errorf("Similarity(p,p) = %v, want 1", s)
	}
}

// Property: JSD is symmetric and within [0,1] for random distributions.
func TestJSDivergenceProperty(t *testing.T) {
	f := func(a, b [4]uint8) bool {
		p := normalize(a)
		q := normalize(b)
		d1 := jsDivergence(p, q)
		d2 := jsDivergence(q, p)
		return d1 >= 0 && d1 <= 1 && math.Abs(d1-d2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func normalize(a [4]uint8) []float64 {
	out := make([]float64, 4)
	var sum float64
	for i, v := range a {
		out[i] = float64(v) + 1
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func BenchmarkTrain(b *testing.B) {
	docs := twoTopicCorpus(50)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Train(docs, Config{K: 4, Iterations: 20, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// infer estimates the topic distribution of an unseen document by folding
// it in with Gibbs sampling against the frozen topic–word counts.
func (m *Model) infer(doc []string, iterations int, seed int64) []float64 {
	if iterations <= 0 {
		iterations = 30
	}
	var ids []int
	for _, w := range doc {
		if id, ok := m.vocab[w]; ok {
			ids = append(ids, id)
		}
	}
	k := m.K
	if len(ids) == 0 {
		// Unknown content: uniform distribution.
		out := make([]float64, k)
		for t := range out {
			out[t] = 1 / float64(k)
		}
		return out
	}
	rng := rand.New(rand.NewSource(seed))
	nDK := make([]int, k)
	z := make([]int, len(ids))
	for i := range ids {
		t := rng.Intn(k)
		z[i] = t
		nDK[t]++
	}
	vBeta := float64(len(m.words)) * m.Beta
	probs := make([]float64, k)
	for iter := 0; iter < iterations; iter++ {
		for i, w := range ids {
			t := z[i]
			nDK[t]--
			var total float64
			for tt := 0; tt < k; tt++ {
				p := (float64(nDK[tt]) + m.Alpha) *
					(float64(m.nKW[tt][w]) + m.Beta) /
					(float64(m.nK[tt]) + float64(vBeta))
				probs[tt] = p
				total += p
			}
			r := rng.Float64() * total
			nt := 0
			for ; nt < k-1; nt++ {
				r -= probs[nt]
				if r <= 0 {
					break
				}
			}
			z[i] = nt
			nDK[nt]++
		}
	}
	return distribution(nDK, m.Alpha, len(ids), k)
}

// topWords returns the n highest-probability words of a topic, most
// probable first.
func (m *Model) topWords(topic, n int) []string {
	if topic < 0 || topic >= m.K {
		return nil
	}
	type wc struct {
		id    int
		count int
	}
	best := make([]wc, 0, len(m.words))
	for id, c := range m.nKW[topic] {
		if c > 0 {
			best = append(best, wc{id, c})
		}
	}
	// Partial selection sort: n is small.
	if n > len(best) {
		n = len(best)
	}
	for i := 0; i < n; i++ {
		maxJ := i
		for j := i + 1; j < len(best); j++ {
			if best[j].count > best[maxJ].count ||
				(best[j].count == best[maxJ].count && best[j].id < best[maxJ].id) {
				maxJ = j
			}
		}
		best[i], best[maxJ] = best[maxJ], best[i]
	}
	out := make([]string, n)
	for i := 0; i < n; i++ {
		out[i] = m.words[best[i].id]
	}
	return out
}
