// Package forum is the corpus substrate of the reproduction: a synthetic
// forum-post generator standing in for the paper's proprietary datasets
// (HP Forum, TripAdvisor, StackOverflow) plus a simulated annotator pool
// standing in for its 30-person user study.
//
// Each generated post is a sequence of intention blocks drawn from the
// categories the paper's annotators produced (Fig 7) — problem statement,
// previous efforts, help request, hotel description, and so on — realized
// through per-intention sentence templates whose grammar carries the
// communication-means signature the method exploits (past/first-person for
// previous efforts, interrogative/second-person for help requests, ...).
// Topic vocabulary is shared across all posts of a topic, so posts about
// the same device or hotel look alike to whole-post term comparison
// regardless of what they actually ask — the confusability that motivates
// the paper (Fig 1, Docs A/B).
//
// Ground truth shipped with every post: the true segment borders and
// intention labels (for segmentation evaluation), and the (topic, variant)
// scenario key (for relevance judgments: two posts are related iff they
// share it).
package forum

// Domain selects a forum domain: the three evaluation datasets of Sec 9
// plus the Health domain of the paper's introductory motivation.
type Domain int

const (
	// TechSupport mirrors the HP product support forum.
	TechSupport Domain = iota
	// Travel mirrors the TripAdvisor hotel forum.
	Travel
	// Programming mirrors StackOverflow.
	Programming
	// Health mirrors a Medhelp-style medical forum — the paper's
	// introductory motivation, beyond its three evaluation datasets.
	Health
)

var domainNames = [...]string{"TechSupport", "Travel", "Programming", "Health"}

// String returns the domain's display name.
func (d Domain) String() string {
	if int(d) < len(domainNames) {
		return domainNames[d]
	}
	return "?"
}

// GoldSegment is one ground-truth intention block of a generated post.
type GoldSegment struct {
	Intention string // Fig 7 category label, e.g. "previous efforts"
	Start     int    // byte offset of the segment's first character
	End       int    // byte offset one past the segment's last character
	FirstSent int    // index of the segment's first sentence
	NumSents  int    // number of sentences in the segment
}

// Post is one generated forum post with its ground truth.
type Post struct {
	ID       int
	Domain   Domain
	Topic    int // topic index within the domain
	Variant  int // request-variant index within the topic
	Text     string
	Segments []GoldSegment
}

// Scenario returns the post's relevance key: posts are related iff their
// scenarios are equal (same domain, same topic, same request variant).
type Scenario struct {
	Domain  Domain
	Topic   int
	Variant int
}

// Related reports whether two posts are relevant to each other under the
// generator's ground truth: same topic instance and same core request. Two
// posts about the same device with different requests (the paper's Doc A vs
// Doc B) share vocabulary but are NOT related.
func Related(a, b Post) bool {
	return a.ID != b.ID && a.scenario() == b.scenario()
}

// scenario returns the post's relevance key.
func (p Post) scenario() Scenario {
	return Scenario{Domain: p.Domain, Topic: p.Topic, Variant: p.Variant}
}

// GoldSentenceBorders returns the sentence-index borders of the true
// segmentation.
func (p Post) GoldSentenceBorders() []int {
	if len(p.Segments) <= 1 {
		return nil
	}
	out := make([]int, 0, len(p.Segments)-1)
	for _, s := range p.Segments[1:] {
		out = append(out, s.FirstSent)
	}
	return out
}

// intentionSpec describes how one Fig 7 intention category is realized:
// its label and the sentence templates that express it. Templates contain
// {slot} placeholders resolved from the topic's vocabulary pools.
type intentionSpec struct {
	label     string
	templates []string
}

// topic is one thematic scenario of a domain: the vocabulary pools its
// posts draw from and, per request variant, the templates of the post's
// core request. Different variants of the same topic produce posts that
// share vocabulary but serve different needs.
type topic struct {
	name     string
	slots    map[string][]string
	variants [][]string // variants[v] = request templates of variant v
}

// domainSpec bundles everything needed to generate posts of one domain.
type domainSpec struct {
	name string
	// intentions available to every post of the domain, in canonical
	// discourse order. The pseudo-label "REQUEST" marks where the
	// variant-specific request block goes.
	flow []string
	// optional[label] is the probability the intention appears in a post;
	// labels absent from the map always appear.
	optional map[string]float64
	// specs maps an intention label to its realization.
	specs map[string]intentionSpec
	// requestLabel is the Fig 7 label of the variant-specific request.
	requestLabel string
	// slots are domain-global vocabulary pools, overridden per topic.
	slots  map[string][]string
	topics []topic
}
