package textproc

import (
	"testing"
	"testing/quick"
)

func TestStemKnownPairs(t *testing.T) {
	cases := map[string]string{
		"caresses":     "caress",
		"ponies":       "poni",
		"ties":         "ti",
		"caress":       "caress",
		"cats":         "cat",
		"feed":         "feed",
		"agreed":       "agre",
		"plastered":    "plaster",
		"bled":         "bled",
		"motoring":     "motor",
		"sing":         "sing",
		"conflated":    "conflat",
		"troubled":     "troubl",
		"sized":        "size",
		"hopping":      "hop",
		"tanned":       "tan",
		"falling":      "fall",
		"hissing":      "hiss",
		"fizzed":       "fizz",
		"failing":      "fail",
		"filing":       "file",
		"happy":        "happi",
		"sky":          "sky",
		"relational":   "relat",
		"conditional":  "condit",
		"rational":     "ration",
		"valenci":      "valenc",
		"digitizer":    "digit",
		"operator":     "oper",
		"feudalism":    "feudal",
		"decisiveness": "decis",
		"hopefulness":  "hope",
		"callousness":  "callous",
		"formaliti":    "formal",
		"sensitiviti":  "sensit",
		"sensibiliti":  "sensibl",
		"triplicate":   "triplic",
		"formative":    "form",
		"formalize":    "formal",
		"electriciti":  "electr",
		"electrical":   "electr",
		"hopeful":      "hope",
		"goodness":     "good",
		"revival":      "reviv",
		"allowance":    "allow",
		"inference":    "infer",
		"airliner":     "airlin",
		"adjustable":   "adjust",
		"defensible":   "defens",
		"irritant":     "irrit",
		"replacement":  "replac",
		"adjustment":   "adjust",
		"dependent":    "depend",
		"adoption":     "adopt",
		"communism":    "commun",
		"activate":     "activ",
		"angulariti":   "angular",
		"homologous":   "homolog",
		"effective":    "effect",
		"bowdlerize":   "bowdler",
		"probate":      "probat",
		"rate":         "rate",
		"cease":        "ceas",
		"controll":     "control",
		"roll":         "roll",
	}
	for in, want := range cases {
		if got := Stem(in); got != want {
			t.Errorf("Stem(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestStemShortWords(t *testing.T) {
	for _, w := range []string{"a", "at", "be", "is"} {
		if got := Stem(w); got != w {
			t.Errorf("Stem(%q) = %q, want unchanged", w, got)
		}
	}
}

func TestStemNonASCII(t *testing.T) {
	if got := Stem("café"); got != "café" {
		t.Errorf("Stem(café) = %q, want unchanged", got)
	}
}

func TestStemIdempotentOnCommonVocabulary(t *testing.T) {
	// Stemming an already-stemmed IR vocabulary term should be stable enough
	// that double-stemming equals single stemming for typical forum words.
	words := []string{"printer", "printers", "printing", "installed",
		"installing", "installation", "connection", "connected", "drives",
		"booking", "booked", "recommendation", "recommended", "questions"}
	for _, w := range words {
		once := Stem(w)
		twice := Stem(once)
		if Stem(twice) != twice {
			t.Errorf("Stem not stable after two applications for %q: %q -> %q -> %q", w, once, twice, Stem(twice))
		}
	}
}

// Property: the stemmer never panics, never lengthens an ASCII word, and
// output is non-empty for non-empty input.
func TestStemProperty(t *testing.T) {
	f := func(s string) bool {
		// Constrain to lower-case ASCII letters, as real input is.
		var b []byte
		for _, r := range s {
			if r >= 'a' && r <= 'z' {
				b = append(b, byte(r))
			}
		}
		w := string(b)
		out := Stem(w)
		if len(w) == 0 {
			return out == ""
		}
		return len(out) > 0 && len(out) <= len(w)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStem(b *testing.B) {
	words := []string{"relational", "installation", "printers", "configuring",
		"recommendation", "performance", "degradation", "replication"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Stem(words[i%len(words)])
	}
}

func BenchmarkTokenize(b *testing.B) {
	text := "I have an HP system with a RAID 0 controller and 4 disks in form of a JBOD. " +
		"I would like to install Hadoop with a replication 4 HDFS."
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for start, end := NextToken(text, 0); start < end; start, end = NextToken(text, end) {
		}
	}
}
