// Package pos implements a lexicon- and rule-based English part-of-speech
// tagger. The intention-based segmentation method of the paper needs, per
// sentence, the grammatical signals of Table 1: verbs with their tense,
// pronouns by grammatical person, nouns, adjectives and adverbs, negation
// and interrogative markers, and passive-voice constructions. A full
// statistical tagger is unnecessary for that; this package provides a
// deterministic tagger built from closed-class lexicons, an irregular-verb
// table, suffix heuristics, and a small set of contextual repair rules in
// the spirit of Brill (1992).
package pos

// Tag is a coarse part-of-speech category. The tag set is deliberately
// small: it is exactly the inventory the communication-means annotator
// consumes.
type Tag uint8

const (
	// Other covers tokens that none of the rules classify.
	Other Tag = iota
	// Noun covers common and proper nouns.
	Noun
	// VerbBase is an uninflected verb form ("install", "go").
	VerbBase
	// VerbPresent is a finite present-tense verb ("installs", "goes", "is").
	VerbPresent
	// VerbPast is a finite past-tense verb ("installed", "went", "was").
	VerbPast
	// VerbGerund is an -ing form ("installing").
	VerbGerund
	// VerbPastPart is a past participle ("installed", "gone") when used
	// non-finitely, e.g. inside a perfect or passive construction.
	VerbPastPart
	// Modal is a modal auxiliary ("will", "can", "would", ...).
	Modal
	// Adjective covers adjectives.
	Adjective
	// Adverb covers adverbs.
	Adverb
	// PronounFirst is a first-person pronoun ("I", "we", "my", ...).
	PronounFirst
	// PronounSecond is a second-person pronoun ("you", "your", ...).
	PronounSecond
	// PronounThird is a third-person pronoun ("he", "it", "they", ...).
	PronounThird
	// Determiner covers articles and demonstrative determiners.
	Determiner
	// Preposition covers prepositions and subordinating conjunctions.
	Preposition
	// Conjunction covers coordinating conjunctions.
	Conjunction
	// Number covers numerals and alphanumeric model names ("320GB").
	Number
	// Particle covers "to" before a verb and negation particles.
	Particle
	// WhWord covers interrogative words ("what", "how", "why", ...).
	WhWord
	// Punct covers punctuation tokens.
	Punct
)

var tagNames = [...]string{
	Other: "OTHER", Noun: "NOUN", VerbBase: "VB", VerbPresent: "VBP",
	VerbPast: "VBD", VerbGerund: "VBG", VerbPastPart: "VBN", Modal: "MD",
	Adjective: "ADJ", Adverb: "ADV", PronounFirst: "PRP1",
	PronounSecond: "PRP2", PronounThird: "PRP3", Determiner: "DET",
	Preposition: "PREP", Conjunction: "CONJ", Number: "NUM",
	Particle: "PART", WhWord: "WH", Punct: "PUNCT",
}

// String returns the conventional short name of the tag.
func (t Tag) String() string {
	if int(t) < len(tagNames) {
		return tagNames[t]
	}
	return "?"
}

// IsVerb reports whether the tag is any verb form (excluding modals).
func (t Tag) IsVerb() bool {
	switch t {
	case VerbBase, VerbPresent, VerbPast, VerbGerund, VerbPastPart:
		return true
	}
	return false
}

// IsPronoun reports whether the tag is a personal pronoun of any person.
func (t Tag) IsPronoun() bool {
	return t == PronounFirst || t == PronounSecond || t == PronounThird
}

// Form is a set of closed-class memberships of one word that hold whatever
// its context: the ones the repair rules test a token for (FormTo,
// FormHave, FormBeGet) and the ones the communication-means annotator
// tests (the rest). Lexical computes them beside the tag, once per word, so
// neither pass compares a token's text with a word list.
type Form uint16

const (
	// FormTo marks "to", the infinitive particle before a verb.
	FormTo Form = 1 << iota
	// FormHave marks a form of "to have", negated contractions included:
	// a perfect auxiliary before a past verb.
	FormHave
	// FormBeGet marks a form of "to be" or "to get": a passive auxiliary.
	FormBeGet
	// FormNegation marks a negation ("not", "never", "didn't", ...).
	FormNegation
	// FormFuture marks a future marker ("will", "'ll", "won't", "gonna").
	FormFuture
	// FormWh marks an interrogative word.
	FormWh
	// FormPastAux marks a past auxiliary ("had", "was", "didn't", ...):
	// the verb group it opens is in the past.
	FormPastAux
	// FormPerfectAux marks a present form of "to have" ("has", "'ve",
	// "haven't", ...): with a past participle, a past event.
	FormPerfectAux
	// FormGoing marks "going" and "gonna": with a base verb, the future.
	FormGoing
	// FormInverts marks an auxiliary or modal that opens a question when a
	// pronoun follows it ("Do you", "Can I").
	FormInverts
	// FormClauseBreak marks "," and ";", which end a verb group.
	FormClauseBreak
)

// TaggedToken is one token of a sentence as the tagger sees it: its tag and
// its word's forms.
type TaggedToken struct {
	Tag  Tag
	Form Form
}
