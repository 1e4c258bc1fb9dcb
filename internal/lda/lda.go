// Package lda implements Latent Dirichlet Allocation with collapsed Gibbs
// sampling (Blei et al. 2003; Griffiths & Steyvers sampler). It is the
// topic-model baseline of the paper's evaluation (Table 4, Fig 11): posts
// are matched by the similarity of their inferred topic distributions, with
// no inverted index — which is also why it is the slowest method in
// Fig 11(c).
package lda

import (
	"fmt"
	"math/rand"

	"repro/internal/portlog"
)

// Model is a trained LDA topic model.
type Model struct {
	K     int     // number of topics
	Alpha float64 // document–topic Dirichlet prior
	Beta  float64 // topic–word Dirichlet prior

	vocab map[string]int
	words []string    // id → word
	nKW   [][]int     // topic × word counts
	nK    []int       // per-topic totals
	theta [][]float64 // per-training-document topic distributions
}

// Config bundles the training hyperparameters. Zero values select the
// customary defaults: Alpha = 50/K, Beta = 0.01, Iterations = 100.
type Config struct {
	K          int
	Alpha      float64
	Beta       float64
	Iterations int
	Seed       int64
}

func (c Config) withDefaults() Config {
	if c.K <= 0 {
		c.K = 10
	}
	if c.Alpha == 0 {
		c.Alpha = 50.0 / float64(c.K)
	}
	if c.Beta == 0 {
		c.Beta = 0.01
	}
	if c.Iterations <= 0 {
		c.Iterations = 100
	}
	return c
}

// Train fits a topic model to the tokenized documents by collapsed Gibbs
// sampling. Documents are slices of (lower-cased, stopword-filtered) terms.
// Training is deterministic for a fixed Config.
func Train(docs [][]string, cfg Config) (*Model, error) {
	cfg = cfg.withDefaults()
	if len(docs) == 0 {
		return nil, fmt.Errorf("lda: no documents")
	}
	m := &Model{
		K:     cfg.K,
		Alpha: cfg.Alpha,
		Beta:  cfg.Beta,
		vocab: make(map[string]int),
	}
	// Build the vocabulary and the word-id form of the corpus.
	corpus := make([][]int, len(docs))
	for d, doc := range docs {
		ids := make([]int, 0, len(doc))
		for _, w := range doc {
			id, ok := m.vocab[w]
			if !ok {
				id = len(m.words)
				m.vocab[w] = id
				m.words = append(m.words, w)
			}
			ids = append(ids, id)
		}
		corpus[d] = ids
	}
	v := len(m.words)
	if v == 0 {
		return nil, fmt.Errorf("lda: empty vocabulary")
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	k := cfg.K
	nDK := make([][]int, len(corpus))
	z := make([][]int, len(corpus))
	m.nKW = make([][]int, k)
	for t := range m.nKW {
		m.nKW[t] = make([]int, v)
	}
	m.nK = make([]int, k)
	for d, ids := range corpus {
		nDK[d] = make([]int, k)
		z[d] = make([]int, len(ids))
		for i, w := range ids {
			t := rng.Intn(k)
			z[d][i] = t
			nDK[d][t]++
			m.nKW[t][w]++
			m.nK[t]++
		}
	}

	vBeta := float64(v) * cfg.Beta
	probs := make([]float64, k)
	for iter := 0; iter < cfg.Iterations; iter++ {
		for d, ids := range corpus {
			for i, w := range ids {
				t := z[d][i]
				nDK[d][t]--
				m.nKW[t][w]--
				m.nK[t]--

				var total float64
				for tt := 0; tt < k; tt++ {
					p := (float64(nDK[d][tt]) + cfg.Alpha) *
						(float64(m.nKW[tt][w]) + cfg.Beta) /
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
				z[d][i] = nt
				nDK[d][nt]++
				m.nKW[nt][w]++
				m.nK[nt]++
			}
		}
	}

	// Final per-document topic distributions.
	m.theta = make([][]float64, len(corpus))
	for d := range corpus {
		m.theta[d] = distribution(nDK[d], cfg.Alpha, len(corpus[d]), k)
	}
	return m, nil
}

// distribution converts topic counts into a smoothed probability vector.
func distribution(counts []int, alpha float64, n, k int) []float64 {
	out := make([]float64, k)
	denom := float64(n) + float64(alpha*float64(k))
	for t, c := range counts {
		out[t] = (float64(c) + alpha) / denom
	}
	return out
}

// DocTopics returns the topic distribution of training document d.
func (m *Model) DocTopics(d int) []float64 { return m.theta[d] }

// NumDocs returns the number of training documents.
func (m *Model) NumDocs() int { return len(m.theta) }

// Similarity measures how alike two topic distributions are: 1 minus their
// Jensen–Shannon divergence (normalized to [0,1] with log base 2).
func Similarity(p, q []float64) float64 {
	return 1 - jsDivergence(p, q)
}

// jsDivergence computes the Jensen–Shannon divergence between two discrete
// distributions, in bits normalized to [0,1].
func jsDivergence(p, q []float64) float64 {
	if len(p) != len(q) {
		return 1
	}
	var js float64
	for i := range p {
		m := (p[i] + q[i]) / 2
		if p[i] > 0 && m > 0 {
			js += float64(0.5 * p[i] * portlog.Log2(p[i]/m))
		}
		if q[i] > 0 && m > 0 {
			js += float64(0.5 * q[i] * portlog.Log2(q[i]/m))
		}
	}
	if js < 0 {
		return 0
	}
	if js > 1 {
		return 1
	}
	return js
}
