package textproc

import (
	"strings"
	"testing"
	"unicode"
	"unicode/utf8"
)

// Fuzz harnesses for the text substrate. Offsets produced here are the
// coordinate system for the whole pipeline (segment borders, annotator
// windows, WinDiff evaluation), so the harnesses check the structural
// invariants downstream code relies on, not just absence of panics:
//
//   - Tokenize: spans in-bounds, ordered, non-overlapping, faithful
//     (src[Start:End] == Text), positions sequential, and every byte
//     outside a token is part of a whitespace rune.
//   - SplitSentences: same span discipline for sentences and their
//     tokens, plus whitespace-only gaps for valid UTF-8 input.
//   - StripHTML: never panics, always emits valid UTF-8, never grows
//     valid input, and is idempotent whenever the input cannot smuggle
//     an entity ('&'-free) — full idempotence is unattainable for an
//     entity decoder whose output alphabet includes '&', '<' and '>'
//     ("&amp;lt;" decodes to "&lt;", which would decode again).
//
// Each target also holds the fast paths to the straight-line reference
// implementations of oracle_test.go, input for input.
//
// Seed corpora live in testdata/fuzz/<FuzzName>/; CI replays them (and
// runs a short -fuzz smoke) via scripts/fuzz.sh.

// checkGapWhitespace asserts that src[lo:hi] consists solely of
// whitespace runes — the bytes a scanner is allowed to skip.
func checkGapWhitespace(t *testing.T, what, src string, lo, hi int) {
	t.Helper()
	for k := lo; k < hi; {
		r, size := utf8.DecodeRuneInString(src[k:hi])
		if !unicode.IsSpace(r) {
			t.Fatalf("%s: skipped non-space rune %q at byte %d", what, r, k)
		}
		k += size
	}
}

func FuzzTokenize(f *testing.F) {
	f.Add("My hard disk makes noise. What should I do?")
	f.Add("don't e-mail\tme  at 3.5GB/s — thanks!")
	f.Add("naïve café ’quoted’ state-of-the-art x86-64")
	f.Add("a'b'c--d '' - 'x")
	f.Add("\x80\xfeinvalid\xc2utf8\xa0")
	f.Add("")
	f.Fuzz(func(t *testing.T, text string) {
		tokens := tokenize(text)
		sameTokens(t, "Tokenize", tokens, refTokenize(text))
		prevEnd := 0
		for i, tok := range tokens {
			if tok.Start < 0 || tok.End > len(text) || tok.Start >= tok.End {
				t.Fatalf("token %d: span [%d,%d) out of bounds for len %d", i, tok.Start, tok.End, len(text))
			}
			if tok.Start < prevEnd {
				t.Fatalf("token %d: span [%d,%d) overlaps previous end %d", i, tok.Start, tok.End, prevEnd)
			}
			if text[tok.Start:tok.End] != tok.Text {
				t.Fatalf("token %d: src[%d:%d] = %q, Text = %q", i, tok.Start, tok.End, text[tok.Start:tok.End], tok.Text)
			}
			if tok.Position != i {
				t.Fatalf("token %d: Position = %d", i, tok.Position)
			}
			checkGapWhitespace(t, "tokenize gap", text, prevEnd, tok.Start)
			prevEnd = tok.End
		}
		checkGapWhitespace(t, "tokenize tail", text, prevEnd, len(text))
	})
}

func FuzzSplitSentences(f *testing.F) {
	f.Add("My hard disk makes noise. What should I do? Please help!")
	f.Add("I upgraded MySQL 5.5.3 yesterday... e.g. the disk, cf. Fig. 2.")
	f.Add("First paragraph.\n\nSecond one!? \"Quoted.\") trailing")
	f.Add("Dr. J. Smith et al.\nno terminator here")
	f.Add("...!!!...   \n \t\n. . .")
	f.Add("bad\xffbytes. mixed\xc2 in? yes.")
	f.Fuzz(func(t *testing.T, text string) {
		checkAgainstReference(t, text)
		sentences := SplitSentences(text)
		valid := utf8.ValidString(text)
		prevEnd := 0
		for i, s := range sentences {
			if s.Start < 0 || s.End > len(text) || s.Start >= s.End {
				t.Fatalf("sentence %d: span [%d,%d) out of bounds for len %d", i, s.Start, s.End, len(text))
			}
			if text[s.Start:s.End] != s.Text {
				t.Fatalf("sentence %d: src[%d:%d] != Text %q", i, s.Start, s.End, s.Text)
			}
			if s.Index != i {
				t.Fatalf("sentence %d: Index = %d", i, s.Index)
			}
			tokPrev := s.Start
			for j, tok := range sentenceTokens(s) {
				if tok.Start < s.Start || tok.End > s.End || tok.Start >= tok.End {
					t.Fatalf("sentence %d token %d: span [%d,%d) outside sentence [%d,%d)", i, j, tok.Start, tok.End, s.Start, s.End)
				}
				if text[tok.Start:tok.End] != tok.Text {
					t.Fatalf("sentence %d token %d: offset text mismatch", i, j)
				}
				if tok.Start < tokPrev {
					t.Fatalf("sentence %d token %d: overlaps previous", i, j)
				}
				if tok.Position != j {
					t.Fatalf("sentence %d token %d: Position = %d", i, j, tok.Position)
				}
				tokPrev = tok.End
			}
			// Sentence ordering and whitespace-only gaps. Invalid UTF-8 can
			// defeat the trimmed-span relocation (a continuation byte can
			// alias into a multi-byte whitespace rune), so the gap property
			// is only promised for valid input; span fidelity always holds.
			if valid {
				if s.Start < prevEnd {
					t.Fatalf("sentence %d: span [%d,%d) overlaps previous end %d", i, s.Start, s.End, prevEnd)
				}
				checkGapWhitespace(t, "sentence gap", text, prevEnd, s.Start)
			}
			prevEnd = max(prevEnd, s.End)
		}
		if valid {
			checkGapWhitespace(t, "sentence tail", text, prevEnd, len(text))
		}
	})
}

func FuzzStripHTML(f *testing.F) {
	f.Add("<p>My <b>disk</b> fails &amp; clicks.</p><script>var x=1;</script>")
	f.Add("plain text, no markup at all")
	f.Add("<div><ul><li>one<li>two</ul></div> <a href=\"x\">link</a>")
	f.Add("unclosed <tag and &#65; &#x41; &bogus; &amp")
	f.Add("<STYLE>body{}</STYLE><pre>code &lt;kept&gt;</pre>")
	f.Add("< spaced > text <> <!doctype html> <br/>")
	f.Add("&\x80<\xffentity&#xZZ;")
	f.Fuzz(func(t *testing.T, raw string) {
		out := StripHTML(raw)
		if want := refStripHTML(raw); out != want {
			t.Fatalf("StripHTML(%q) = %q, the reference has %q", raw, out, want)
		}
		// collapseSpace re-encodes every rune, so the output is valid
		// UTF-8 no matter how mangled the input bytes are.
		if !utf8.ValidString(out) {
			t.Fatalf("output is not valid UTF-8: %q", out)
		}
		// Tags and entities only ever shrink; invalid bytes are the one
		// thing that can grow (1 byte -> U+FFFD), so bound valid input.
		if utf8.ValidString(raw) && len(out) > len(raw) {
			t.Fatalf("output grew: %d -> %d bytes", len(raw), len(out))
		}
		// Without '&' no entity can be produced or smuggled, so a second
		// strip must be a fixed point: every surviving '<' comes from an
		// unclosed-tag tail (no '>' after it), separators are already
		// collapsed, and the result is trimmed.
		if !strings.Contains(raw, "&") {
			if again := StripHTML(out); again != out {
				t.Fatalf("not idempotent on '&'-free input:\n in: %q\none: %q\ntwo: %q", raw, out, again)
			}
		}
	})
}

func FuzzDecodeEntity(f *testing.F) {
	f.Add("&amp; rest")
	f.Add("&#x10FFFF;x")
	f.Add("&#0;&#-3;&#99999999999;")
	f.Add("&;&#;&#x;&notanentity;")
	f.Fuzz(func(t *testing.T, s string) {
		ent, adv, ok := decodeEntity(s)
		if !ok {
			if ent != "" || adv != 0 {
				t.Fatalf("failed decode returned (%q,%d)", ent, adv)
			}
			return
		}
		if ent == "" {
			t.Fatal("ok decode returned empty replacement")
		}
		if adv < 3 || adv > len(s) {
			t.Fatalf("advance %d out of range for len %d", adv, len(s))
		}
		if s[0] != '&' || s[adv-1] != ';' {
			t.Fatalf("decoded span %q is not &...;", s[:adv])
		}
		if !utf8.ValidString(ent) {
			t.Fatalf("replacement %q is not valid UTF-8", ent)
		}
	})
}
