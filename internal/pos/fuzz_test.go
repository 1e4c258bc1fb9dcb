package pos

import (
	"strings"
	"testing"
)

// FuzzTagWords feeds arbitrary token streams through the tagger. The
// tagger must never panic on any UTF-8 (or non-UTF-8) token — it sees
// whatever the tokenizer emits, including pure punctuation, digits
// glued to letters, and mangled bytes — and must honor its structural
// contract: one output per input, every tag inside the declared tag set,
// and the lexical tag and forms the ones the reference probe chain and
// word lists (oracle_test.go) assign. Splitting here is plain whitespace
// splitting so the harness does not depend on textproc.
func FuzzTagWords(f *testing.F) {
	f.Add("My hard disk makes a clicking noise when reading .")
	f.Add("I 've been trying to install MySQL 5.5 but it didn 't work !")
	f.Add("don't won't can't shouldn't I'll we're")
	f.Add("??? 320GB x86-64 --- '' \xff\x80 naïve")
	f.Add("")
	f.Fuzz(func(t *testing.T, input string) {
		tokens := strings.Fields(input)
		tagged := TagWords(tokens)
		if len(tagged) != len(tokens) {
			t.Fatalf("TagWords returned %d tags for %d tokens", len(tagged), len(tokens))
		}
		for i, tt := range tagged {
			if tt.Tag > Punct {
				t.Fatalf("token %d: tag %d outside the declared tag set", i, tt.Tag)
			}
			checkLexical(t, strings.ToLower(tokens[i]))
		}
		// Tagging is per-sentence in the pipeline, but the repair pass
		// must also survive a second application over its own output
		// without changing the structural fields.
		again := TagWords(tokens)
		for i := range again {
			if again[i].Text != tagged[i].Text || again[i].Tag != tagged[i].Tag {
				t.Fatalf("token %d: tagging not deterministic", i)
			}
		}
	})
}
