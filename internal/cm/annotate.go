package cm

import (
	"repro/internal/pos"
	"repro/internal/textproc"
)

// AnnotateTagged computes the communication-means annotation of one
// sentence from its tokens as TagSentence tagged them. Tense, Subject and
// PartOfSpeech are counted per token (each verb group contributes to
// exactly one tense; each personal pronoun to one person; each
// verb/noun/adjective/adverb token to one POS bucket). Style and Status are
// sentence-level categorical observations: the sentence contributes one
// count to interrogative/negative/affirmative and, if it contains a verb,
// one count to passive or active.
func AnnotateTagged(sent textproc.Sentence, tagged []pos.TaggedToken) Annotation {
	var a Annotation
	hasVerb := false
	passive := false
	negative := false

	for i, tt := range tagged {
		if tt.Tag != pos.Punct {
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
		if tt.Tag == pos.Modal && tt.Form&pos.FormFuture != 0 && !verbFollows(tagged, i) {
			a.Counts[TenseFuture]++
		}
		if tt.Form&pos.FormNegation != 0 {
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
			if tt.Form&pos.FormClauseBreak != 0 {
				break
			}
			continue
		}
		seen++
		if tt.Tag == pos.Modal {
			if tt.Form&pos.FormFuture != 0 {
				return TenseFuture
			}
			return TensePresent // conditional/ability modals read as present
		}
		switch {
		case tt.Form&pos.FormPastAux != 0:
			return TensePast
		case tt.Form&pos.FormPerfectAux != 0:
			// Perfect aspect reports a past event.
			if tagged[i].Tag == pos.VerbPastPart {
				return TensePast
			}
		case tt.Form&pos.FormGoing != 0:
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
		if tt.Form&pos.FormBeGet != 0 {
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
	return first.Form&pos.FormWh != 0 ||
		first.Form&pos.FormInverts != 0 && second != nil && second.Tag.IsPronoun()
}
