package match

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/forum"
	"repro/internal/segment"
)

// arrivalOrderPosts are added to a loaded matcher, whose dictionary is
// in term order, and bring terms that sort before ("aaaq…"), between
// ("mmmq…") and after ("zzzq…") its vocabulary — so ids stop agreeing
// with term order, which Eq 7 and Eq 9 are summed in.
var arrivalOrderPosts = []string{
	"My zzzqa raid array fails after a reboot. Does anyone know how to fix the mmmqa controller? I tried the aaaqa firmware and the aaaqa tool twice.",
	"The aaaqb driver crashes my laptop. I tried mmmqb and zzzqb and zzzqb again. How can I fix the mmmqa error?",
	"I have a zzzqa printer with an aaaqa cable. The mmmqb setup hangs. Can someone tell me what the zzzqc log means? The zzzqc log grows and grows.",
	"Does the mmmqc update break the raid array? My aaaqc disk shows zzzqa errors. I tried to reinstall mmmqc and aaaqc, aaaqc did nothing.",
}

// TestArrivalOrderTrap pins the layout's one trap at the matcher: after
// adds whose terms arrive out of term order, every score and every
// explanation must equal, bit for bit, those of a matcher rebuilt from
// scratch over the same documents (read back from the snapshot, so its
// dictionary is sorted and its indices come from Load's constructor) and
// of the matcher that met the whole corpus in reading order; and all of
// them must write the same bytes. (Shards over an out-of-order
// dictionary are internal/serve's model test: its add stream carries
// such terms to every topology.)
func TestArrivalOrderTrap(t *testing.T) {
	// The Programming vocabulary runs from "access" to "written"; the
	// others start at a digit, which no token sorts before.
	tc := buildCorpus(t, forum.Programming, 80, 23)
	built := NewMR("IntentIntent-MR", tc.docs, MRConfig{Seed: 7})
	loaded, err := ReadMR(writeMR(t, built), nil)
	if err != nil {
		t.Fatal(err)
	}
	vocab := loaded.dict.Terms()
	if !sort.StringsAreSorted(vocab) {
		t.Fatal("a freshly loaded dictionary should be in term order")
	}
	for _, text := range arrivalOrderPosts {
		if a, b := built.Add(segment.NewDoc(text)), loaded.Add(segment.NewDoc(text)); a != b {
			t.Fatalf("add assigned ids %d and %d", a, b)
		}
	}
	var before, between, after bool
	for _, term := range loaded.dict.Terms()[len(vocab):] {
		before = before || term < vocab[0]
		between = between || (term > vocab[0] && term < vocab[len(vocab)-1])
		after = after || term > vocab[len(vocab)-1]
	}
	if !before || !between || !after {
		t.Fatalf("new terms %q: need one before, one between and one after the loaded vocabulary", loaded.dict.Terms()[len(vocab):])
	}

	file := writeMR(t, loaded)
	rebuilt, err := ReadMR(file, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, writeMR(t, rebuilt)) {
		t.Error("write → load → write is not byte-identical")
	}
	if !bytes.Equal(file, writeMR(t, built)) {
		t.Error("the file depends on the order the dictionary met the terms in")
	}

	compared := 0
	for d := 0; d < loaded.NumDocs(); d++ {
		res, exps := loaded.MatchExplained(d, 5, nil)
		for name, other := range map[string]*MR{"rebuilt from the snapshot": rebuilt, "built in reading order": built} {
			r, e := other.MatchExplained(d, 5, nil)
			if !reflect.DeepEqual(res, r) || !reflect.DeepEqual(exps, e) {
				t.Fatalf("doc %d: served %v %v, %s %v %v", d, res, exps, name, r, e)
			}
		}
		compared += len(res)
	}
	if compared == 0 {
		t.Fatal("no result compared")
	}
}

// TestSegTableVarintWidths round-trips ids of every uvarint width, one
// to five bytes, through rows of the segment table: appendSeg encodes,
// appendTokens decodes after whatever dst holds, and numTokens counts.
func TestSegTableVarintWidths(t *testing.T) {
	ids := []int32{0, 127, 128, 16383, 16384, 1 << 21, math.MaxInt32}
	widths := []int{1, 1, 2, 2, 3, 4, 5}
	for i, id := range ids {
		var st segTable
		st.appendSeg(0, 0, []int32{id})
		st.endDoc()
		if len(st.ids) != widths[i] {
			t.Errorf("id %d takes %d bytes, want %d", id, len(st.ids), widths[i])
		}
		if got := st.appendTokens([]int32{-1}, 0); !slices.Equal(got, []int32{-1, id}) {
			t.Errorf("id %d decodes to %v", id, got[1:])
		}
	}
	var st segTable
	rows := [][]int32{ids, nil, {math.MaxInt32, 0, 16384, 16384, 127}}
	for r, row := range rows {
		st.appendSeg(r, 0, row)
	}
	st.endDoc()
	if got, want := st.numTokens(0, len(rows)), len(ids)+5; got != want {
		t.Errorf("numTokens = %d, want %d", got, want)
	}
	var all []int32
	for r, row := range rows {
		if got := st.appendTokens(nil, r); !slices.Equal(got, row) {
			t.Errorf("row %d decodes to %v, want %v", r, got, row)
		}
		if got := st.numTokens(r, r+1); got != len(row) {
			t.Errorf("row %d: numTokens = %d, want %d", r, got, len(row))
		}
		all = st.appendTokens(all, r)
	}
	if want := slices.Concat(rows...); !slices.Equal(all, want) {
		t.Errorf("rows appended in turn decode to %v, want %v", all, want)
	}
}
