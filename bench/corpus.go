package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"
	"strconv"
	"strings"

	"repro/internal/forum"
)

// The long tail every real forum has beside its everyday words: model
// numbers, error codes, part ids. internal/forum's templates draw from
// about 10³ terms, which makes every posting list nearly as long as the
// collection; splicing Zipf-distributed tail tokens into each sentence
// gives the document-frequency curve a short head and a Heaps-law tail.
const (
	tailVocab = 200_000 // ids the tail tokens are drawn from
	tailS     = 1.07    // Zipf exponent
	tailV     = 4       // Zipf offset: flattens the head so no tail token is everywhere
)

// corpusSeed draws the collection (post texts, tail tokens, add texts)
// and seeds the pipelines built over it. It is a constant because the
// collection is a fixed dataset: k-means lands on another cluster balance
// with every corpus, which moves the cost of a query by 9–20 % before
// the machine adds anything, so results on two corpora do not compare.
// -seed draws the traffic over it.
const corpusSeed = 42

// postText is post number id of the benchmark corpus: the TechSupport
// template text with 0–2 tail tokens ("zq<id>x", which survive
// tokenizing and stemming as index terms) before the final punctuation
// of every sentence. A post depends only on its id, so the add texts
// are simply the posts after the initial collection.
func postText(id int) string {
	text := forum.GeneratePost(forum.TechSupport, id, corpusSeed).Text
	rng := rand.New(rand.NewSource(corpusSeed*7_000_003 + int64(id)))
	zipf := rand.NewZipf(rng, tailS, tailV, tailVocab-1)
	var b strings.Builder
	b.Grow(len(text) + 64)
	for i := 0; i < len(text); i++ {
		c := text[i]
		if (c == '.' || c == '?' || c == '!') && (i+1 == len(text) || text[i+1] == ' ') {
			for n := rng.Intn(3); n > 0; n-- {
				b.WriteString(" zq")
				b.WriteString(strconv.FormatUint(zipf.Uint64(), 10))
				b.WriteByte('x')
			}
		}
		b.WriteByte(c)
	}
	return b.String()
}

// genTexts returns posts [from, from+n) of the corpus.
func genTexts(from, n int) []string {
	texts := make([]string, n)
	for i := range texts {
		texts[i] = postText(from + i)
	}
	return texts
}

// hashTexts is the SHA-256 of the texts, each preceded by its length.
func hashTexts(texts []string) string {
	h := sha256.New()
	var n [8]byte
	for _, t := range texts {
		binary.LittleEndian.PutUint64(n[:], uint64(len(t)))
		h.Write(n[:])
		h.Write([]byte(t))
	}
	return hex.EncodeToString(h.Sum(nil))
}
