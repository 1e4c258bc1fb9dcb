package forum

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config controls corpus generation. The same Config always yields the
// same corpus: every post derives its own RNG from (Seed, post id), which
// also makes generation order-independent.
type Config struct {
	Domain   Domain
	NumPosts int
	Seed     int64
}

// Spec returns the generation spec of a domain.
func spec(d Domain) *domainSpec {
	switch d {
	case TechSupport:
		return &techSpec
	case Travel:
		return &travelSpec
	case Health:
		return &healthSpec
	default:
		return &programmingSpec
	}
}

// Intentions returns the Fig 7 intention category labels of a domain, in
// canonical discourse order (the generator's ground-truth label set).
func Intentions(d Domain) []string {
	sp := spec(d)
	out := make([]string, 0, len(sp.flow))
	for _, label := range sp.flow {
		if label == "REQUEST" {
			out = append(out, sp.requestLabel)
		} else {
			out = append(out, label)
		}
	}
	return out
}

// Generate produces a deterministic synthetic corpus.
func Generate(cfg Config) []Post {
	posts := make([]Post, cfg.NumPosts)
	for i := range posts {
		posts[i] = GeneratePost(cfg.Domain, i, cfg.Seed)
	}
	return posts
}

// GeneratePost produces post number id of the corpus (Domain, seed). It is
// what Generate calls per post, exposed for streaming large corpora without
// materializing them.
func GeneratePost(d Domain, id int, seed int64) Post {
	sp := spec(d)
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(id)))

	t := rng.Intn(len(sp.topics))
	top := &sp.topics[t]
	v := rng.Intn(len(top.variants))

	post := Post{ID: id, Domain: d, Topic: t, Variant: v}
	var b strings.Builder
	sentIndex := 0

	appendSegment := func(label string, sentences []string) {
		if len(sentences) == 0 {
			return
		}
		seg := GoldSegment{Intention: label, FirstSent: sentIndex, NumSents: len(sentences)}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		seg.Start = b.Len()
		for i, s := range sentences {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(s)
		}
		seg.End = b.Len()
		sentIndex += len(sentences)
		post.Segments = append(post.Segments, seg)
	}

	for _, label := range sp.flow {
		if label == "REQUEST" {
			n := 1 + rng.Intn(2)
			appendSegment(sp.requestLabel, fillSentences(rng, top.variants[v], n, top, sp))
			continue
		}
		if p, optional := sp.optional[label]; optional && rng.Float64() >= p {
			continue
		}
		is := sp.specs[label]
		n := 1 + rng.Intn(3)
		appendSegment(is.label, fillSentences(rng, is.templates, n, top, sp))
	}
	post.Text = b.String()
	return post
}

// fillSentences instantiates n distinct templates from the pool (fewer if
// the pool is smaller), resolving slots against the topic's vocabulary with
// domain-global fallback.
func fillSentences(rng *rand.Rand, templates []string, n int, top *topic, sp *domainSpec) []string {
	if n > len(templates) {
		n = len(templates)
	}
	perm := rng.Perm(len(templates))
	out := make([]string, 0, n)
	for _, ti := range perm[:n] {
		out = append(out, fillTemplate(rng, templates[ti], top, sp))
	}
	return out
}

// fillTemplate substitutes every {slot} placeholder with a vocabulary pick.
func fillTemplate(rng *rand.Rand, tpl string, top *topic, sp *domainSpec) string {
	var b strings.Builder
	b.Grow(len(tpl) + 16)
	for {
		open := strings.IndexByte(tpl, '{')
		if open < 0 {
			b.WriteString(tpl)
			return b.String()
		}
		close := strings.IndexByte(tpl[open:], '}')
		if close < 0 {
			b.WriteString(tpl)
			return b.String()
		}
		b.WriteString(tpl[:open])
		slot := tpl[open+1 : open+close]
		b.WriteString(pickSlot(rng, slot, top, sp))
		tpl = tpl[open+close+1:]
	}
}

// pickSlot resolves one slot name; unknown slots surface loudly so template
// typos cannot silently produce broken corpora.
func pickSlot(rng *rand.Rand, slot string, top *topic, sp *domainSpec) string {
	if pool, ok := top.slots[slot]; ok && len(pool) > 0 {
		return pool[rng.Intn(len(pool))]
	}
	if pool, ok := sp.slots[slot]; ok && len(pool) > 0 {
		return pool[rng.Intn(len(pool))]
	}
	panic(fmt.Sprintf("forum: template slot %q undefined for topic %q of %s", slot, top.name, sp.name))
}

// RelevantSet returns the ids of all posts related to the query post under
// the generator's ground truth.
func RelevantSet(posts []Post, query Post) map[int]bool {
	rel := make(map[int]bool)
	for _, p := range posts {
		if Related(query, p) {
			rel[p.ID] = true
		}
	}
	return rel
}
