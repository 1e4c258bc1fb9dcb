package main

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/segment"
)

func TestSameSeedSameInputs(t *testing.T) {
	w, _ := findWorkload("mixed_write")
	sz := smokeSizes()
	if hashTexts(genTexts(0, sz.posts)) != hashTexts(genTexts(0, sz.posts)) {
		t.Error("the corpus came out differently the second time")
	}
	s1, s2 := drawSchedule(7, w, sz), drawSchedule(7, w, sz)
	if s1.hash != s2.hash {
		t.Error("the same seed gave two different schedules")
	}
	if s1.hash == drawSchedule(8, w, sz).hash {
		t.Error("two seeds gave the same schedule")
	}
	if s1.adds[0] != postText(sz.posts) {
		t.Error("the first add is not the first post after the initial collection")
	}
	// Every tenth operation of mixed_write's traffic is an add, and the
	// write slice is nothing but adds, each a text of its own.
	for i, o := range s1.closed {
		if isAdd := i%w.addEvery == w.addEvery-1; isAdd != (o.kind == opAdd) {
			t.Fatalf("closed position %d is a %s, every %dth should be an add", i, o.kind.path(), w.addEvery)
		}
	}
	texts := make(map[string]bool)
	for _, text := range s1.adds {
		texts[text] = true
	}
	if want := (sz.closedOps+sz.openOps)/w.addEvery + sz.writeWarmOps + sz.writeOps; len(s1.adds) != want || len(texts) != want {
		t.Errorf("mixed_write drew %d adds of %d distinct texts, want %d", len(s1.adds), len(texts), want)
	}

	// A read-only workload's only adds are its write side's, and they are
	// part of what the hash covers.
	other, _ := findWorkload("read_hot_cached")
	s3 := drawSchedule(7, other, sz)
	if s1.hash == s3.hash {
		t.Error("two workloads share a schedule")
	}
	if want := sz.writeWarmOps + sz.writeOps; len(s3.adds) != want {
		t.Errorf("read_hot_cached drew %d adds, want %d", len(s3.adds), want)
	}
	sz.writeOps--
	if s3.hash == drawSchedule(7, other, sz).hash {
		t.Error("the schedule hash does not cover the write slice")
	}
}

// The tail must make the document-frequency curve look like a forum's:
// tens of thousands of rare terms beside the template vocabulary.
func TestTailVocabulary(t *testing.T) {
	w, _ := findWorkload("read_uniform")
	posts := fullSizes(w, 16).posts
	df := make(map[string]int)
	for id := 0; id < posts; id++ {
		seen := make(map[string]bool)
		for _, word := range strings.Fields(postText(id)) {
			word = strings.TrimRight(word, ".?!")
			if isTailTerm(word) && !seen[word] {
				seen[word] = true
				df[word]++
			}
		}
	}
	if len(df) < 20_000 {
		t.Errorf("%d posts hold %d distinct tail terms, want at least 20000", posts, len(df))
	}
	dfs := make([]int, 0, len(df))
	for _, n := range df {
		dfs = append(dfs, n)
	}
	sort.Ints(dfs)
	t.Logf("%d posts: %d distinct tail terms, median document frequency %d, highest %d", posts, len(df), dfs[len(dfs)/2], dfs[len(dfs)-1])
	if med := dfs[len(dfs)/2]; med > 3 {
		t.Errorf("median document frequency of a tail term is %d, want at most 3", med)
	}

	// The tokens reach the index as they were spliced in: tokenizing,
	// stop-word filtering and stemming leave them whole.
	for id := 0; id < 50; id++ {
		text := postText(id)
		spliced := 0
		for _, word := range strings.Fields(text) {
			if isTailTerm(strings.TrimRight(word, ".?!")) {
				spliced++
			}
		}
		d := segment.NewDoc(text)
		indexed := 0
		for _, term := range d.Terms(0, d.Len()) {
			if isTailTerm(term) {
				indexed++
			}
		}
		if indexed != spliced {
			t.Errorf("post %d: %d tail tokens spliced in, %d reached the index terms", id, spliced, indexed)
		}
	}
}

// isTailTerm reports whether an index term is one of the spliced tail
// tokens rather than a template word.
func isTailTerm(term string) bool {
	return len(term) > 3 && strings.HasPrefix(term, "zq") && term[len(term)-1] == 'x'
}
