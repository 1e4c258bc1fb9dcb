package textproc

// Stem reduces an English word to its stem using the classic Porter (1980)
// algorithm. Input is expected lower-cased; words shorter than three bytes
// and words with non-ASCII bytes are returned unchanged (standard Porter
// behavior).
//
// The algorithm runs on a stack buffer. Every step only shortens the word
// or rewrites its tail, so a stem that is a prefix of the word — most are —
// is returned as that prefix, without allocating.
func Stem(word string) string {
	if len(word) < 3 {
		return word
	}
	for i := 0; i < len(word); i++ {
		if word[i] > 127 {
			return word // non-ASCII: leave untouched
		}
	}
	var buf [32]byte // longer words spill to the heap
	w := append(buf[:0], word...)
	w = step1a(w)
	w = step1b(w)
	w = step1c(w)
	w = step2(w)
	w = step3(w)
	w = step4(w)
	w = step5a(w)
	w = step5b(w)
	if string(w) == word[:len(w)] {
		return word[:len(w)]
	}
	return string(w)
}

// isCons reports whether w[i] acts as a consonant in Porter's definition:
// vowels are a,e,i,o,u, plus y when preceded by a consonant.
func isCons(w []byte, i int) bool {
	switch w[i] {
	case 'a', 'e', 'i', 'o', 'u':
		return false
	case 'y':
		if i == 0 {
			return true
		}
		return !isCons(w, i-1)
	}
	return true
}

// measure computes Porter's m: the number of VC sequences in w.
func measure(w []byte) int {
	n := 0
	i := 0
	// Skip initial consonants.
	for i < len(w) && isCons(w, i) {
		i++
	}
	for {
		// Skip vowels.
		for i < len(w) && !isCons(w, i) {
			i++
		}
		if i >= len(w) {
			return n
		}
		// Skip consonants.
		for i < len(w) && isCons(w, i) {
			i++
		}
		n++
		if i >= len(w) {
			return n
		}
	}
}

func hasVowel(w []byte) bool {
	for i := range w {
		if !isCons(w, i) {
			return true
		}
	}
	return false
}

// endsDoubleCons reports whether w ends with a doubled consonant.
func endsDoubleCons(w []byte) bool {
	n := len(w)
	return n >= 2 && w[n-1] == w[n-2] && isCons(w, n-1)
}

// endsCVC reports whether w ends consonant-vowel-consonant where the final
// consonant is not w, x, or y.
func endsCVC(w []byte) bool {
	n := len(w)
	if n < 3 {
		return false
	}
	if !isCons(w, n-3) || isCons(w, n-2) || !isCons(w, n-1) {
		return false
	}
	c := w[n-1]
	return c != 'w' && c != 'x' && c != 'y'
}

// hasSuffix checks the last byte first: the steps try dozens of suffixes on
// every word and all but a few fail right there.
func hasSuffix(w []byte, s string) bool {
	return len(w) >= len(s) && w[len(w)-1] == s[len(s)-1] && string(w[len(w)-len(s):]) == s
}

// replaceSuffix replaces suffix s with r, in place (no r is longer than its
// s), when the stem measure condition m > minM holds for the stem. It
// returns the new word and whether the suffix matched.
func replaceSuffix(w []byte, s, r string, minM int) ([]byte, bool) {
	if !hasSuffix(w, s) {
		return w, false
	}
	stem := w[:len(w)-len(s)]
	if measure(stem) <= minM {
		return w, true // matched but condition failed: stop suffix scanning
	}
	return append(stem, r...), true
}

func step1a(w []byte) []byte {
	switch {
	case hasSuffix(w, "sses"):
		return w[:len(w)-2]
	case hasSuffix(w, "ies"):
		return w[:len(w)-2]
	case hasSuffix(w, "ss"):
		return w
	case hasSuffix(w, "s"):
		return w[:len(w)-1]
	}
	return w
}

func step1b(w []byte) []byte {
	if hasSuffix(w, "eed") {
		stem := w[:len(w)-3]
		if measure(stem) > 0 {
			return w[:len(w)-1]
		}
		return w
	}
	var stem []byte
	switch {
	case hasSuffix(w, "ed") && hasVowel(w[:len(w)-2]):
		stem = w[:len(w)-2]
	case hasSuffix(w, "ing") && hasVowel(w[:len(w)-3]):
		stem = w[:len(w)-3]
	default:
		return w
	}
	switch {
	case hasSuffix(stem, "at"), hasSuffix(stem, "bl"), hasSuffix(stem, "iz"):
		return append(stem, 'e')
	case endsDoubleCons(stem) && !hasSuffix(stem, "l") && !hasSuffix(stem, "s") && !hasSuffix(stem, "z"):
		return stem[:len(stem)-1]
	case measure(stem) == 1 && endsCVC(stem):
		return append(stem, 'e')
	}
	return stem
}

func step1c(w []byte) []byte {
	if hasSuffix(w, "y") && hasVowel(w[:len(w)-1]) {
		w[len(w)-1] = 'i'
	}
	return w
}

var step2Rules = []struct{ s, r string }{
	{"ational", "ate"}, {"tional", "tion"}, {"enci", "ence"}, {"anci", "ance"},
	{"izer", "ize"}, {"abli", "able"}, {"alli", "al"}, {"entli", "ent"},
	{"eli", "e"}, {"ousli", "ous"}, {"ization", "ize"}, {"ation", "ate"},
	{"ator", "ate"}, {"alism", "al"}, {"iveness", "ive"}, {"fulness", "ful"},
	{"ousness", "ous"}, {"aliti", "al"}, {"iviti", "ive"}, {"biliti", "ble"},
}

func step2(w []byte) []byte {
	for _, rule := range step2Rules {
		if out, ok := replaceSuffix(w, rule.s, rule.r, 0); ok {
			return out
		}
	}
	return w
}

var step3Rules = []struct{ s, r string }{
	{"icate", "ic"}, {"ative", ""}, {"alize", "al"}, {"iciti", "ic"},
	{"ical", "ic"}, {"ful", ""}, {"ness", ""},
}

func step3(w []byte) []byte {
	for _, rule := range step3Rules {
		if out, ok := replaceSuffix(w, rule.s, rule.r, 0); ok {
			return out
		}
	}
	return w
}

var step4Suffixes = []string{
	"al", "ance", "ence", "er", "ic", "able", "ible", "ant", "ement",
	"ment", "ent", "ou", "ism", "ate", "iti", "ous", "ive", "ize",
}

func step4(w []byte) []byte {
	for _, s := range step4Suffixes {
		if !hasSuffix(w, s) {
			continue
		}
		stem := w[:len(w)-len(s)]
		if measure(stem) > 1 {
			return stem
		}
		return w
	}
	// "ion" requires the stem to end in s or t.
	if hasSuffix(w, "ion") {
		stem := w[:len(w)-3]
		if measure(stem) > 1 && (hasSuffix(stem, "s") || hasSuffix(stem, "t")) {
			return stem
		}
	}
	return w
}

func step5a(w []byte) []byte {
	if !hasSuffix(w, "e") {
		return w
	}
	stem := w[:len(w)-1]
	m := measure(stem)
	if m > 1 || (m == 1 && !endsCVC(stem)) {
		return stem
	}
	return w
}

func step5b(w []byte) []byte {
	if measure(w) > 1 && endsDoubleCons(w) && hasSuffix(w, "ll") {
		return w[:len(w)-1]
	}
	return w
}
