package cm

import (
	"repro/internal/pos"
	"repro/internal/textproc"
)

// TagSentence returns the sentence's tokens lower-cased and tagged, in
// buf's memory when that is large enough. It is the one pass over the words
// that everything downstream shares: AnnotateTagged reads the tags, and a
// caller that goes on to filter and stem the words
// (segment.newDocFromSentences) reads Lower instead of lower-casing again.
func TagSentence(buf []pos.TaggedToken, sent textproc.Sentence) []pos.TaggedToken {
	buf = buf[:0]
	for _, t := range sent.Tokens {
		buf = append(buf, pos.TaggedToken{Text: t.Text, Lower: t.Lower()})
	}
	pos.TagTokens(buf)
	return buf
}

// AnnotateTagged is Annotate for a sentence whose tokens are already
// tagged (by TagSentence).
func AnnotateTagged(sent textproc.Sentence, tagged []pos.TaggedToken) Annotation {
	var a Annotation
	hasVerb := false
	passive := false
	negative := false

	for i, tt := range tagged {
		if tt.Tag != pos.Punct && tt.Lower != "" {
			a.Words++
		}
		switch tt.Tag {
		case pos.PronounFirst:
			a.Counts[SubjectFirst]++
		case pos.PronounSecond:
			a.Counts[SubjectSecond]++
		case pos.PronounThird:
			a.Counts[SubjectThird]++
		case pos.Noun:
			a.Counts[POSNoun]++
		case pos.Adjective, pos.Adverb:
			a.Counts[POSAdjAdv]++
		}
		if tt.Tag.IsVerb() {
			hasVerb = true
			a.Counts[POSVerb]++
			a.Counts[verbTense(tagged, i)]++
			if tt.Tag == pos.VerbPastPart && hasPassiveAux(tagged, i) {
				passive = true
			}
		}
		// A future modal with no verb to carry it ("I will, for sure.") still
		// signals futurity.
		if tt.Tag == pos.Modal && pos.IsFutureMarker(tt.Lower) && !verbFollows(tagged, i) {
			a.Counts[TenseFuture]++
		}
		if pos.IsNegation(tt.Lower) {
			negative = true
		}
	}

	switch {
	case isInterrogative(sent, tagged):
		a.Counts[StyleInterrogative]++
	case negative:
		a.Counts[StyleNegative]++
	default:
		a.Counts[StyleAffirmative]++
	}

	if hasVerb {
		if passive {
			a.Counts[StatusPassive]++
		} else {
			a.Counts[StatusActive]++
		}
	}
	return a
}

// verbTense classifies the tense of the verb at index i from its auxiliary
// context: a future marker in the verb group wins; otherwise finite past
// forms and perfect participles are past; everything else is present.
func verbTense(tagged []pos.TaggedToken, i int) Feature {
	// Scan the auxiliary window: up to three non-punctuation tokens to the
	// left, stopping at a clause-breaking token.
	seen := 0
	for j := i - 1; j >= 0 && seen < 3; j-- {
		tt := tagged[j]
		if tt.Tag == pos.Punct {
			if tt.Text == "," || tt.Text == ";" {
				break
			}
			continue
		}
		seen++
		if tt.Tag == pos.Modal {
			if pos.IsFutureMarker(tt.Lower) {
				return TenseFuture
			}
			return TensePresent // conditional/ability modals read as present
		}
		switch tt.Lower {
		case "had", "was", "were", "did", "didn't", "wasn't", "weren't", "hadn't":
			return TensePast
		case "have", "has", "'ve", "haven't", "hasn't":
			// Perfect aspect reports a past event.
			if tagged[i].Tag == pos.VerbPastPart {
				return TensePast
			}
		case "going", "gonna":
			// "going to install" — future.
			if tagged[i].Tag == pos.VerbBase {
				return TenseFuture
			}
		}
		if tt.Tag.IsVerb() || tt.Tag.IsPronoun() || tt.Tag == pos.Noun {
			break // left the auxiliary group
		}
	}
	switch tagged[i].Tag {
	case pos.VerbPast, pos.VerbPastPart:
		return TensePast
	default:
		return TensePresent
	}
}

// hasPassiveAux reports whether the past participle at index i is preceded
// by a form of "be" or "get" within its verb group, i.e., heads a passive
// construction ("was suggested", "got installed", "has been fixed").
func hasPassiveAux(tagged []pos.TaggedToken, i int) bool {
	seen := 0
	for j := i - 1; j >= 0 && seen < 3; j-- {
		tt := tagged[j]
		if tt.Tag == pos.Punct {
			continue
		}
		seen++
		if pos.IsBeForm(tt.Lower) || pos.IsGetForm(tt.Lower) || tt.Lower == "been" || tt.Lower == "being" {
			return true
		}
		if tt.Tag == pos.Adverb || tt.Tag == pos.Particle {
			continue // "was not updated", "was quickly fixed"
		}
		return false
	}
	return false
}

// verbFollows reports whether a verb token appears within the three
// non-punctuation tokens after index i.
func verbFollows(tagged []pos.TaggedToken, i int) bool {
	seen := 0
	for j := i + 1; j < len(tagged) && seen < 3; j++ {
		if tagged[j].Tag == pos.Punct {
			continue
		}
		seen++
		if tagged[j].Tag.IsVerb() {
			return true
		}
	}
	return false
}

// isInterrogative reports whether the sentence is a question: it ends with
// a question mark, or opens with an interrogative word, or opens with an
// inverted auxiliary/modal followed by a pronoun ("Do you know ...",
// "Can I do it ...").
func isInterrogative(sent textproc.Sentence, tagged []pos.TaggedToken) bool {
	if sent.EndsWith('?') {
		return true
	}
	var first, second *pos.TaggedToken
	for i := range tagged {
		if tagged[i].Tag == pos.Punct {
			continue
		}
		if first == nil {
			first = &tagged[i]
			continue
		}
		second = &tagged[i]
		break
	}
	if first == nil {
		return false
	}
	if pos.IsWhWord(first.Lower) {
		return true
	}
	if second != nil && second.Tag.IsPronoun() {
		switch first.Lower {
		case "do", "does", "did", "can", "could", "would", "will", "should",
			"is", "are", "was", "were", "have", "has", "had", "may", "might":
			return true
		}
	}
	return false
}
