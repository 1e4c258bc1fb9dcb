package match

import (
	"bytes"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/forum"
	"repro/internal/index"
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

// termStrings returns a dictionary view's terms, id by id.
func termStrings(v index.TermView) []string {
	out := make([]string, v.Len())
	for id := range out {
		out[id] = v.Term(int32(id))
	}
	return out
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
	vocab := termStrings(loaded.dict.Terms())
	if !sort.StringsAreSorted(vocab) {
		t.Fatal("a freshly loaded dictionary should be in term order")
	}
	for _, text := range arrivalOrderPosts {
		if a, b := built.Add(segment.NewDoc(text)), loaded.Add(segment.NewDoc(text)); a != b {
			t.Fatalf("add assigned ids %d and %d", a, b)
		}
	}
	var before, between, after bool
	added := termStrings(loaded.dict.Terms())[len(vocab):]
	for _, term := range added {
		before = before || term < vocab[0]
		between = between || (term > vocab[0] && term < vocab[len(vocab)-1])
		after = after || term > vocab[len(vocab)-1]
	}
	if !before || !between || !after {
		t.Fatalf("new terms %q: need one before, one between and one after the loaded vocabulary", added)
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
// next decodes after whatever dst holds, and numTokens counts.
func TestSegTableVarintWidths(t *testing.T) {
	ids := []int32{0, 127, 128, 16383, 16384, 1 << 21, math.MaxInt32}
	widths := []int{1, 1, 2, 2, 3, 4, 5}
	for i, id := range ids {
		var st segTable
		st.startDoc(1)
		st.appendSeg(0, []int32{id})
		if got := len(st.data) - 3; got != widths[i] { // row count, cluster, token count
			t.Errorf("id %d takes %d bytes, want %d", id, got, widths[i])
		}
		rows := st.rows(0)
		if c, got := rows.next([]int32{-1}); c != 0 || !slices.Equal(got, []int32{-1, id}) {
			t.Errorf("id %d decodes to cluster %d, %v", id, c, got[1:])
		}
	}
}

// TestSegTableStream round-trips documents through the one byte stream:
// rows of 0, 127, 128 and 300 tokens (a one- and a two-byte count),
// cluster ids 127 and 128, and documents with no rows between, at the
// start and at the end. Each document decodes to its rows, ascending in
// cluster, and numTokens counts its tokens.
func TestSegTableStream(t *testing.T) {
	type row struct {
		cluster int
		tokens  []int32
	}
	run := func(n int, first int32) []int32 {
		out := make([]int32, n)
		for i := range out {
			out[i] = first + int32(i)*97
		}
		return out
	}
	docs := [][]row{
		nil,
		{{0, nil}, {1, run(127, 0)}, {127, run(128, 100)}, {128, run(300, 16000)}},
		nil,
		nil,
		{{128, nil}},
		{{3, run(1, math.MaxInt32)}, {127, nil}},
		nil,
	}
	var st segTable
	for _, rows := range docs {
		st.startDoc(len(rows))
		for _, r := range rows {
			st.appendSeg(r.cluster, r.tokens)
		}
	}
	if st.numDocs() != len(docs) {
		t.Fatalf("numDocs = %d, want %d", st.numDocs(), len(docs))
	}
	for d, want := range docs {
		rows := st.rows(d)
		if rows.n != len(want) {
			t.Errorf("doc %d: %d rows, want %d", d, rows.n, len(want))
			continue
		}
		tokens := 0
		for i, w := range want {
			c, got := rows.next([]int32{-1})
			if c != w.cluster || !slices.Equal(got[1:], w.tokens) {
				t.Errorf("doc %d row %d: cluster %d, %d tokens; want cluster %d, %d tokens", d, i, c, len(got)-1, w.cluster, len(w.tokens))
			}
			tokens += len(w.tokens)
		}
		if rows.n != 0 || len(rows.b) != 0 {
			t.Errorf("doc %d: %d rows and %d bytes left after its rows", d, rows.n, len(rows.b))
		}
		if got := st.numTokens(d); got != tokens {
			t.Errorf("doc %d: numTokens = %d, want %d", d, got, tokens)
		}
	}
}
