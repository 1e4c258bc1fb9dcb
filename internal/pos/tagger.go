package pos

import (
	"strings"
	"unicode"
)

// Lexical returns what the tagger knows of one lower-cased token out of
// context: its lexical tag (the lexicon, then morphology and suffix
// heuristics) and its forms. Tagging a sentence is Lexical for every token,
// then Repair: a contextual pass that fixes the classic ambiguities
// (noun/verb after determiners, base form after modals and "to",
// participles after auxiliaries). Lexical depends on the word alone, so a
// caller that meets a word again may reuse its answer.
func Lexical(lower string) TaggedToken {
	return TaggedToken{Tag: lexicalTag(lower), Form: forms(lower)}
}

// forms returns the forms of the lower-cased word w.
func forms(w string) Form {
	f := formWords[w]
	if strings.HasSuffix(w, "n't") {
		f |= FormNegation
	}
	return f
}

// firstByte classifies a token by its first byte, read as a Latin-1 code
// point: what separates punctuation and numbers from words.
var firstByte = func() (class [256]Tag) {
	for c := range class {
		switch r := rune(c); {
		case unicode.IsDigit(r):
			class[c] = Number
		case !unicode.IsLetter(r):
			class[c] = Punct
		}
	}
	return class
}()

// lexicalTag assigns a context-free tag to a single lower-cased token.
func lexicalTag(lower string) Tag {
	if lower == "" {
		return Other
	}
	if t := firstByte[lower[0]]; t != Other {
		return t
	}
	if t, ok := lexicon[lower]; ok {
		return t
	}
	// Morphological derivations of known base verbs, then word shape. The
	// three inflections end in different letters, so at most one applies.
	switch lower[len(lower)-1] {
	case 's':
		if isVerbS(lower) {
			return VerbPresent
		}
	case 'd':
		if isVerbED(lower) {
			return VerbPast
		}
	case 'g':
		if isVerbING(lower) {
			return VerbGerund
		}
	}
	return suffixTag(lower)
}

// isBaseVerb reports whether stem+tail is a known base verb; the candidate
// is spelled into a stack buffer, so trying one allocates nothing.
func isBaseVerb(stem, tail string) bool {
	var buf [32]byte
	if len(stem)+len(tail) > len(buf) {
		return false // longer than any base verb
	}
	n := copy(buf[:], stem)
	n += copy(buf[n:], tail)
	return baseVerbs[string(buf[:n])]
}

// isVerbS undoes the third-person-singular inflection of a word ending in
// s and looks the base up: "goes" → "go", "tries" → "try", "installs" →
// "install".
func isVerbS(w string) bool {
	switch {
	case strings.HasSuffix(w, "ies") && len(w) > 4:
		return isBaseVerb(w[:len(w)-3], "y")
	case strings.HasSuffix(w, "sses"), strings.HasSuffix(w, "ches"),
		strings.HasSuffix(w, "shes"), strings.HasSuffix(w, "xes"),
		strings.HasSuffix(w, "zes"), strings.HasSuffix(w, "oes"):
		return len(w) > 3 && baseVerbs[w[:len(w)-2]]
	case !strings.HasSuffix(w, "ss") && len(w) > 2:
		return baseVerbs[w[:len(w)-1]]
	}
	return false
}

// isVerbED undoes regular past inflection: "installed" → "install",
// "used" → "use", "tried" → "try", "stopped" → "stop".
func isVerbED(w string) bool {
	if !strings.HasSuffix(w, "ed") || len(w) < 4 {
		return false
	}
	stem := w[:len(w)-2]
	return baseVerbs[stem] || isBaseVerb(stem, "e") ||
		strings.HasSuffix(stem, "i") && isBaseVerb(stem[:len(stem)-1], "y") ||
		isDoubledBaseVerb(stem)
}

// isVerbING undoes progressive inflection: "installing" → "install",
// "using" → "use", "stopping" → "stop".
func isVerbING(w string) bool {
	if !strings.HasSuffix(w, "ing") || len(w) < 5 {
		return false
	}
	stem := w[:len(w)-3]
	return baseVerbs[stem] || isBaseVerb(stem, "e") || isDoubledBaseVerb(stem)
}

// isDoubledBaseVerb undoes consonant doubling: "stopp" → "stop".
func isDoubledBaseVerb(stem string) bool {
	n := len(stem)
	return n >= 2 && stem[n-1] == stem[n-2] && baseVerbs[stem[:n-1]]
}

// suffixTag guesses a tag for an open-class word from its shape. Anything
// without a telling suffix is a noun, which is also what the noun suffixes
// (-tion, -ment, -ness, -ity, ...) would say; no word ends in two of the
// suffixes below, so their order is free.
func suffixTag(lower string) Tag {
	n := len(lower)
	switch lower[n-1] {
	case 'y':
		if n > 4 && lower[n-2] == 'l' {
			return Adverb
		}
	case 'g':
		if n > 5 && strings.HasSuffix(lower, "ing") {
			return VerbGerund
		}
	case 'd':
		if n > 4 && lower[n-2] == 'e' {
			return VerbPast
		}
	case 'l':
		if strings.HasSuffix(lower, "ful") {
			return Adjective
		}
	case 's':
		if strings.HasSuffix(lower, "ous") || strings.HasSuffix(lower, "less") {
			return Adjective
		}
	case 'e':
		if strings.HasSuffix(lower, "ive") || strings.HasSuffix(lower, "able") || strings.HasSuffix(lower, "ible") {
			return Adjective
		}
	case 'h':
		if strings.HasSuffix(lower, "ish") {
			return Adjective
		}
	case 't':
		if strings.HasSuffix(lower, "est") {
			return Adjective
		}
	}
	return Noun
}

// Repair applies the contextual correction rules, left to right, to the
// tokens of one sentence, each holding its Lexical answer.
func Repair(tt []TaggedToken) {
	for i := range tt {
		cur := &tt[i]
		prev := prevWord(tt, i)

		// "to" + verb → infinitive particle + base form.
		if cur.Tag.IsVerb() && prev != nil && prev.Form&FormTo != 0 {
			prev.Tag = Particle
			if cur.Tag == VerbPresent {
				cur.Tag = VerbBase
			}
		}

		// Modal + finite verb → base form ("would like", "can do").
		if cur.Tag == VerbPresent && prev != nil && prev.Tag == Modal {
			cur.Tag = VerbBase
		}

		// have/has/had + past verb → past participle (perfect aspect).
		if cur.Tag == VerbPast && prev != nil && prev.Form&FormHave != 0 {
			cur.Tag = VerbPastPart
		}
		// be-form + past verb → past participle (passive candidate); also
		// allow one intervening adverb or negation ("was not suggested").
		if cur.Tag == VerbPast && prev != nil {
			if prev.Form&FormBeGet != 0 {
				cur.Tag = VerbPastPart
			} else if prev.Tag == Adverb || prev.Tag == Particle {
				if pp := prevWordBefore(tt, i, prev); pp != nil && pp.Form&FormBeGet != 0 {
					cur.Tag = VerbPastPart
				}
			}
		}

		// Determiner/adjective + "verb" → noun ("the work", "a call",
		// "my previous trial"). Applies to ambiguous base/present verbs.
		if (cur.Tag == VerbPresent || cur.Tag == VerbBase) && prev != nil &&
			(prev.Tag == Determiner || prev.Tag == Adjective || prev.Tag == Number) {
			cur.Tag = Noun
		}

		// Determiner/possessive + adjective with no noun following is a
		// noun phrase head the suffix rules mistook ("the cable", "a
		// table"); true attributive adjectives precede their noun.
		if cur.Tag == Adjective && prev != nil &&
			(prev.Tag == Determiner || prev.Tag.IsPronoun() || prev.Tag == Adjective) {
			if nxt := nextWord(tt, i); nxt == nil ||
				(nxt.Tag != Noun && nxt.Tag != Adjective && nxt.Tag != Number && nxt.Tag != VerbGerund) {
				cur.Tag = Noun
			}
		}

		// Preposition + gerund stays a gerund; pronoun + gerund after be is
		// progressive — both already covered. But sentence-initial gerunds
		// followed by a noun act as nouns ("Programming forums are ...").
		if cur.Tag == VerbGerund && prev == nil {
			if nxt := nextWord(tt, i); nxt != nil && (nxt.Tag == Noun || nxt.Tag == Number) {
				cur.Tag = Noun
			}
		}
	}
}

// prevWord returns the nearest preceding non-punctuation token, or nil.
func prevWord(tt []TaggedToken, i int) *TaggedToken {
	for j := i - 1; j >= 0; j-- {
		if tt[j].Tag != Punct {
			return &tt[j]
		}
	}
	return nil
}

// prevWordBefore returns the nearest non-punctuation token preceding the
// given marker token (which itself precedes index i).
func prevWordBefore(tt []TaggedToken, i int, marker *TaggedToken) *TaggedToken {
	seen := false
	for j := i - 1; j >= 0; j-- {
		if tt[j].Tag == Punct {
			continue
		}
		if !seen {
			if &tt[j] == marker {
				seen = true
			}
			continue
		}
		return &tt[j]
	}
	return nil
}

// nextWord returns the nearest following non-punctuation token, or nil.
func nextWord(tt []TaggedToken, i int) *TaggedToken {
	for j := i + 1; j < len(tt); j++ {
		if tt[j].Tag != Punct {
			return &tt[j]
		}
	}
	return nil
}
