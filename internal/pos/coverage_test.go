package pos

import "testing"

// These tests pin down the less-traveled tagger paths: morphology edge
// cases, repair-rule interactions, and the lexicon entries the CM
// annotator leans on hardest.

func TestMorphologyEdgeCases(t *testing.T) {
	cases := map[string]Tag{
		// -ies third person: "tries" → try.
		"tries": VerbPresent,
		// -oes: "goes" → go.
		"goes": VerbPresent,
		// doubled consonant past: "stopped" → stop.
		"stopped": VerbPast,
		// e-insertion past: "used" → use.
		"used": VerbPast,
		// doubled consonant gerund: "stopping" → stop.
		"stopping": VerbGerund,
		// e-insertion gerund: "using" → use.
		"using": VerbGerund,
	}
	for word, want := range cases {
		tt := TagWords([]string{"they", word})
		if tt[1].Tag != want {
			t.Errorf("%q tagged %v, want %v", word, tt[1].Tag, want)
		}
	}
}

func TestIrregularPastVsParticiple(t *testing.T) {
	// "went" is past-only; "gone" is participle-only; "thought" is both.
	tt := tagsOf("they went home")
	if findTag(tt, "went") != VerbPast {
		t.Error("went should be VerbPast")
	}
	tt = tagsOf("they have gone home")
	if findTag(tt, "gone") != VerbPastPart {
		t.Error("gone should be VerbPastPart")
	}
	tt = tagsOf("I thought about it")
	if findTag(tt, "thought") != VerbPast {
		t.Error("thought (finite) should be VerbPast")
	}
	tt = tagsOf("I have thought about it")
	if findTag(tt, "thought") != VerbPastPart {
		t.Error("thought after have should be VerbPastPart")
	}
}

func TestBeenBeingForms(t *testing.T) {
	tt := tagsOf("it has been repaired")
	if findTag(tt, "been") != VerbPastPart {
		t.Error("been should be VerbPastPart")
	}
	if findTag(tt, "repaired") != VerbPastPart {
		t.Error("repaired after been should be VerbPastPart")
	}
}

func TestGetPassive(t *testing.T) {
	tt := tagsOf("the laptop got repaired")
	if findTag(tt, "repaired") != VerbPastPart {
		t.Errorf("got-passive participle tagged %v", findTag(tt, "repaired"))
	}
}

func TestAdjectiveBeforeNounStaysAdjective(t *testing.T) {
	tt := tagsOf("a comfortable room with a reliable cable")
	if findTag(tt, "comfortable") != Adjective {
		t.Errorf("attributive 'comfortable' tagged %v", findTag(tt, "comfortable"))
	}
	// "cable" at phrase end after determiner must not stay Adjective
	// despite the -able suffix.
	if findTag(tt, "cable") != Noun {
		t.Errorf("'a reliable cable' head tagged %v, want Noun", findTag(tt, "cable"))
	}
}

func TestPredicativeAdjectiveSurvives(t *testing.T) {
	tt := tagsOf("the pool was comfortable")
	if findTag(tt, "comfortable") != Adjective {
		t.Errorf("predicative adjective tagged %v", findTag(tt, "comfortable"))
	}
}

func TestSentenceInitialGerundAsNoun(t *testing.T) {
	tt := tagsOf("Programming forums help everyone")
	if findTag(tt, "programming") != Noun {
		t.Errorf("sentence-initial gerund before noun tagged %v, want Noun", findTag(tt, "programming"))
	}
}

func TestEmptyAndDegenerateTokens(t *testing.T) {
	tt := TagWords([]string{"", "...", "123abc", "ok"})
	if tt[0].Tag != Other {
		t.Errorf("empty token tagged %v", tt[0].Tag)
	}
	if tt[1].Tag != Punct {
		t.Errorf("ellipsis tagged %v", tt[1].Tag)
	}
	if tt[2].Tag != Number {
		t.Errorf("123abc tagged %v, want Number", tt[2].Tag)
	}
}

func TestDeterminersConjunctionsPrepositions(t *testing.T) {
	tt := tagsOf("the disk and every cable in this tray")
	if findTag(tt, "the") != Determiner || findTag(tt, "every") != Determiner {
		t.Error("determiners mistagged")
	}
	if findTag(tt, "and") != Conjunction {
		t.Error("conjunction mistagged")
	}
	if findTag(tt, "in") != Preposition {
		t.Error("preposition mistagged")
	}
}

func TestContractionsCarryPerson(t *testing.T) {
	cases := map[string]Tag{
		"i'm": PronounFirst, "we've": PronounFirst, "you're": PronounSecond,
		"it's": PronounThird, "they'll": PronounThird,
	}
	for w, want := range cases {
		tt := TagWords([]string{w, "fine"})
		if tt[0].Tag != want {
			t.Errorf("%q tagged %v, want %v", w, tt[0].Tag, want)
		}
	}
}

func TestNounSuffixInventory(t *testing.T) {
	for _, w := range []string{"compression", "statement", "darkness",
		"scalability", "clearance", "hardware", "storage", "heroism"} {
		tt := TagWords([]string{"pure", w, "exists"})
		if tt[1].Tag != Noun {
			t.Errorf("%q tagged %v, want Noun", w, tt[1].Tag)
		}
	}
}

func TestAdverbBetweenAuxAndParticiple(t *testing.T) {
	tt := tagsOf("the driver was quickly updated")
	if findTag(tt, "updated") != VerbPastPart {
		t.Errorf("participle after 'was quickly' tagged %v", findTag(tt, "updated"))
	}
}

func TestIsGetForm(t *testing.T) {
	for _, w := range []string{"get", "gets", "got", "gotten", "getting"} {
		if !hasForm(w, FormBeGet) {
			t.Errorf("%q lacks FormBeGet", w)
		}
	}
	if hasForm("give", FormBeGet) {
		t.Error("give has FormBeGet")
	}
}

func TestSuffixTagInventory(t *testing.T) {
	// Words unknown to every lexicon, classified purely by shape.
	cases := map[string]Tag{
		"zorgly":      Adverb,
		"zorgling":    VerbGerund,
		"zorgled":     VerbPast,
		"zorglation":  Noun,
		"zorglession": Noun,
		"zorglement":  Noun,
		"zorgliness":  Noun,
		"zorglity":    Noun,
		"zorglance":   Noun,
		"zorglence":   Noun,
		"zorglship":   Noun,
		"zorglism":    Noun,
		"zorgleware":  Noun,
		"zorglage":    Noun,
		"zorglful":    Adjective,
		"zorglous":    Adjective,
		"zorglive":    Adjective,
		"zorglable":   Adjective,
		"zorglible":   Adjective,
		"zorgless":    Adjective,
		"zorglish":    Adjective,
		"zorgliest":   Adjective,
		"zorgl":       Noun, // no suffix: default
	}
	for w, want := range cases {
		tt := TagWords([]string{"xxzz", w}) // avoid sentence-initial rules
		if tt[1].Tag != want {
			t.Errorf("suffixTag(%q) = %v, want %v", w, tt[1].Tag, want)
		}
	}
}
