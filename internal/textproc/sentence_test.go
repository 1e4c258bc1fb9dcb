package textproc

import (
	"strings"
	"testing"
	"testing/quick"
)

func sentenceTexts(text string) []string {
	ss := SplitSentences(text)
	out := make([]string, len(ss))
	for i, s := range ss {
		out[i] = s.Text
	}
	return out
}

func TestSplitSentencesBasic(t *testing.T) {
	got := sentenceTexts("I have a problem. The printer stopped. Can you help?")
	if len(got) != 3 {
		t.Fatalf("got %d sentences %v, want 3", len(got), got)
	}
	if got[0] != "I have a problem." || got[2] != "Can you help?" {
		t.Fatalf("unexpected sentences: %v", got)
	}
}

func TestSplitSentencesAbbreviations(t *testing.T) {
	got := sentenceTexts("The drive, e.g. the JBOD, failed. Dr. Smith replied.")
	if len(got) != 2 {
		t.Fatalf("got %d sentences %v, want 2", len(got), got)
	}
}

func TestSplitSentencesVersionNumbers(t *testing.T) {
	got := sentenceTexts("We used MySQL 5.5.3 for matching. It worked well.")
	if len(got) != 2 {
		t.Fatalf("got %d sentences %v, want 2", len(got), got)
	}
	if !strings.Contains(got[0], "5.5.3") {
		t.Fatalf("version split apart: %v", got)
	}
}

func TestSplitSentencesExclamationRun(t *testing.T) {
	got := sentenceTexts("No more problems!! It finally works.")
	if len(got) != 2 {
		t.Fatalf("got %v, want 2 sentences", got)
	}
}

func TestSplitSentencesEllipsis(t *testing.T) {
	got := sentenceTexts("I waited... Nothing happened.")
	if len(got) != 2 {
		t.Fatalf("got %v, want 2 sentences", got)
	}
}

func TestSplitSentencesBlankLine(t *testing.T) {
	got := sentenceTexts("First paragraph without terminator\n\nSecond paragraph here.")
	if len(got) != 2 {
		t.Fatalf("got %v, want 2 sentences", got)
	}
}

func TestSplitSentencesNoTerminator(t *testing.T) {
	got := sentenceTexts("a post with no final punctuation")
	if len(got) != 1 {
		t.Fatalf("got %v, want 1 sentence", got)
	}
}

func TestSplitSentencesOffsets(t *testing.T) {
	src := "I have an HP system. Do you know whether it would perform ok? Friends downloaded Cloudera."
	for _, s := range SplitSentences(src) {
		if src[s.Start:s.End] != s.Text {
			t.Errorf("sentence offsets wrong: src[%d:%d]=%q, text=%q", s.Start, s.End, src[s.Start:s.End], s.Text)
		}
		for _, tok := range sentenceTokens(s) {
			if src[tok.Start:tok.End] != tok.Text {
				t.Errorf("token offsets wrong: src[%d:%d]=%q, token=%q", tok.Start, tok.End, src[tok.Start:tok.End], tok.Text)
			}
		}
	}
}

func TestSplitSentencesIndices(t *testing.T) {
	ss := SplitSentences("One. Two. Three.")
	for i, s := range ss {
		if s.Index != i {
			t.Errorf("sentence %d has Index %d", i, s.Index)
		}
	}
}

func TestSplitSentencesQuestionDetection(t *testing.T) {
	ss := SplitSentences("It stopped. Why did it stop?")
	if len(ss) != 2 {
		t.Fatalf("want 2 sentences, got %v", ss)
	}
	if !ss[1].EndsWith('?') {
		t.Error("second sentence should end with ?")
	}
	if ss[0].EndsWith('?') {
		t.Error("first sentence should not end with ?")
	}
}

// Property: sentence spans are ordered, non-overlapping, in-bounds, and
// every sentence's text matches its span.
func TestSplitSentencesSpansProperty(t *testing.T) {
	f := func(s string) bool {
		prevEnd := 0
		for _, sent := range SplitSentences(s) {
			if sent.Start < prevEnd || sent.End < sent.Start || sent.End > len(s) {
				return false
			}
			if s[sent.Start:sent.End] != sent.Text {
				return false
			}
			if strings.TrimSpace(sent.Text) == "" {
				return false
			}
			prevEnd = sent.End
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitSentencesPaperPostA(t *testing.T) {
	// Doc A from Fig. 1 of the paper.
	docA := "I have an HP system with a RAID 0 controller and 4 disks in form " +
		"of a JBOD. I would like to install Hadoop with a replication 4 HDFS and " +
		"only 320GB of disk space used from every disc. Do you know whether it " +
		"would perform ok or whether the partial use of the disk would degrade " +
		"performance. Friends have downloaded the Cloudera distribution but it " +
		"didn't work. It stopped since the web site was suggesting to have 1TB " +
		"disks. I am asking because I do not want to install Linux to find that " +
		"my HW configuration is not right."
	ss := SplitSentences(docA)
	if len(ss) != 6 {
		t.Fatalf("Doc A should split into 6 sentences, got %d: %v", len(ss), sentenceTexts(docA))
	}
}
