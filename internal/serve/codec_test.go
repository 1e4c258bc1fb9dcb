package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/forum"
	"repro/internal/match"
)

// relatedBodies are /related request bodies on both sides of the line
// parseRelated draws: the plain shape it takes itself, and what it must
// leave to encoding/json with the answer unchanged.
var relatedBodies = []string{
	`{"doc_id": 3, "k": 5}`, `{"doc_id":3,"k":5,"explain":true}`, `{"doc_id": 0}`, `{}`, ` { } `,
	"\t{\r\n\"k\" : 7 ,\n\"explain\" : false , \"doc_id\" : 12 }\n", `{"doc_id": -1}`, `{"doc_id": -0}`,
	`{"doc_id": 999999999, "k": 100}`, `{"doc_id": 1234567890}`, `{"doc_id": 99999999999999999999}`,
	`{"doc_id": 3, "k": 5} trailing bytes`, `{"doc_id": 3}{"doc_id": 4}`, `{"doc_id": 3, "k": 5}}`,
	`{"doc_id": `, `{"doc_id": 3`, `{"doc_id": 3,`, `{"doc_id": 3,}`, `{"doc_id"}`, `{"doc_id" 3}`, `{,}`, `{"doc_id": 3 "k": 5}`,
	`{"doc": 3}`, `{"doc_id": 3, "x": 1}`, `{"DOC_ID": 3}`, `{"Doc_Id": 3, "K": 2, "EXPLAIN": true}`,
	`{"doc_id": 3, "doc_id": 4}`, `{"k": 1, "k": 2}`, `{"explain": true, "explain": false}`,
	`{"doc_id": 1.5}`, `{"doc_id": 1e2}`, `{"doc_id": 1.0}`, `{"k": 01}`, `{"k": -}`, `{"k": +1}`, `{"k": 0x10}`,
	`{"doc_id": "3"}`, `{"doc_id": null, "k": null, "explain": null}`, `{"explain": 1}`, `{"explain": "true"}`,
	`{"explain": tru}`, `{"explain": truex}`, `{"explain": True}`, `{"explain": true1}`,
	`{"doc\u005fid": 3}`, `{"k\"": 3}`, `{"k\\": 3}`, `{"": 1}`, `{"doc_id": 3, "k": 5, "explain": {}}`,
	``, ` `, `null`, `[]`, `[1]`, `3`, `"x"`, `true`, "\xef\xbb\xbf{}", `{"doc_id": 3}` + "\x00", "{\"doc_id\"\x00: 3}",
	`{"doc_id": 3, "k": 5, "explain": true, "doc_id": 3}`, `{"k":5,"doc_id":3}`,
}

// chunked hands out at most n bytes a Read.
type chunked struct {
	r io.Reader
	n int
}

func (c chunked) Read(p []byte) (int, error) { return c.r.Read(p[:min(len(p), c.n)]) }

type decodeOutcome struct {
	ok     bool
	req    RelatedRequest
	status int
	body   string
}

// decodeWith runs one of the two /related decoders over body, read in
// chunks of at most chunk bytes, under a statusWriter as observe would set up.
func decodeWith(fast bool, body []byte, chunk int) decodeOutcome {
	rec := httptest.NewRecorder()
	sc := &statusWriter{ResponseWriter: rec, buf: make([]byte, 0, 512)}
	r := httptest.NewRequest(http.MethodPost, "/related", chunked{bytes.NewReader(body), chunk})
	var out decodeOutcome
	if fast {
		out.req, out.ok = decodeRelated(sc, r)
	} else {
		out.ok = decodeJSON(sc, r, &out.req)
	}
	if !out.ok {
		out.req = RelatedRequest{} // the handler never looks
	}
	out.status, out.body = rec.Code, rec.Body.String()
	return out
}

func checkDecodeAgrees(t *testing.T, body []byte, chunk int) {
	t.Helper()
	if got, want := decodeWith(true, body, chunk), decodeWith(false, body, chunk); got != want {
		t.Fatalf("body %q in reads of %d:\ndecodeRelated %+v\ndecodeJSON    %+v", body, chunk, got, want)
	}
}

// TestDecodeRelatedMatchesDecodeJSON holds the hand parser with its
// fallback to the reflection decoder: same acceptance, same struct, same
// status and error body — whole bodies, bodies split across reads,
// bodies longer than the writer's buffer, and bodies past the size bound
// (refused only when the first value itself runs past it).
func TestDecodeRelatedMatchesDecodeJSON(t *testing.T) {
	for _, b := range relatedBodies {
		for _, chunk := range []int{1 << 20, 1, 7} {
			checkDecodeAgrees(t, []byte(b), chunk)
		}
	}
	pad := strings.Repeat(" ", 600)
	huge := strings.Repeat(" ", maxBodyBytes+10)
	for _, b := range []string{
		pad + `{"doc_id": 3, "k": 5}`, `{"doc_id": 3,` + pad + `"k": 5}`, `{"doc_id": 3, "k": 5}` + pad + "x",
		`{"doc_id": 3, "k": 5}` + huge, huge + `{"doc_id": 3}`, `{"doc_id": 3,` + huge + `"k": 5}`,
	} {
		checkDecodeAgrees(t, []byte(b), 1<<20)
	}
	// The plain shape must actually be taken by the hand parser, or the
	// agreement above says nothing about it.
	var req RelatedRequest
	if !parseRelated([]byte(` {"k": 7, "explain": true, "doc_id": 12} x`), &req) || req != (RelatedRequest{DocID: 12, K: 7, Explain: true}) {
		t.Fatalf("parseRelated left the plain shape to the fallback (got %+v)", req)
	}
	if got := decodeWith(true, []byte(huge+`{"doc_id": 3}`), 1<<20); got.status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body answered %d %s", got.status, got.body)
	}
}

// FuzzDecodeRelated: for arbitrary bytes in arbitrary read sizes, the
// hand parser + fallback and decodeJSON agree on accept/reject, the
// decoded struct, the status and the error body.
func FuzzDecodeRelated(f *testing.F) {
	for i, b := range relatedBodies {
		f.Add([]byte(b), uint16(i*37))
	}
	f.Fuzz(func(t *testing.T, body []byte, chunk uint16) {
		checkDecodeAgrees(t, body, int(chunk)+1)
	})
}

// addBodies are /add request bodies on both sides of the line parseAdd
// draws, as relatedBodies are for parseRelated.
var addBodies = []string{
	`{"text": "my laptop will not boot"}`, `{"text":"x"}`, " \t{ \"text\" :\r\n\"x y\" }\n", `{"text": "  "}`, `{"text": ""}`,
	`{"text": "x"} {`, `{"text": "x"}}`, `{"text": "x"} trailing`, `{"text": "x"`, `{"text": "x",}`, `{"text": "x", "text": "y"}`,
	`{"text": 3}`, `{"text": null}`, `{"txt": "x"}`, `{"TEXT": "x"}`, `{"Text": "x"}`, `{"text": "x", "k": 1}`, `{}`, `{`, ``, `null`, `[]`,
	`{"text": "caf\u00e9 \"q\" back\\slash"}`, `{"text": "<p>caf\u00e9 &amp; \ud83d\ude00</p>"}`, `{"text": "a\nb"}`,
	"{\"text\": \"\xff\xfe\"}", "{\"text\": \"tab\there\"}", "{\"text\": \"nul\x00\"}", "{\"text\": \"naïve café 日本\"}",
	"{\"text\": \"\xed\xa0\x80 surrogate\"}", "\xef\xbb\xbf{\"text\": \"bom\"}", `{"te\u0078t": "x"}`, `{"text" "x"}`, `{"text": x}`,
}

type addOutcome struct {
	ok     bool
	text   string
	status int
	body   string
}

// decodeAddWith runs one of the two /add decoders over body, read in
// chunks of at most chunk bytes, under a statusWriter as observe would set up.
func decodeAddWith(fast bool, body []byte, chunk int) addOutcome {
	rec := httptest.NewRecorder()
	sc := &statusWriter{ResponseWriter: rec, buf: make([]byte, 0, 512)}
	r := httptest.NewRequest(http.MethodPost, "/add", chunked{bytes.NewReader(body), chunk})
	var out addOutcome
	if fast {
		out.text, out.ok = decodeAdd(sc, r)
	} else {
		var req AddRequest
		out.ok = decodeJSON(sc, r, &req)
		out.text = req.Text
	}
	if !out.ok {
		out.text = "" // the handler never looks
	}
	out.status, out.body = rec.Code, rec.Body.String()
	return out
}

func checkAddAgrees(t *testing.T, body []byte, chunk int) {
	t.Helper()
	if got, want := decodeAddWith(true, body, chunk), decodeAddWith(false, body, chunk); got != want {
		t.Fatalf("body %q in reads of %d:\ndecodeAdd  %+v\ndecodeJSON %+v", body, chunk, got, want)
	}
}

// TestDecodeAddMatchesDecodeJSON holds the /add hand parser with its
// fallback to the reflection decoder, as TestDecodeRelatedMatchesDecodeJSON
// does the /related one — and the plain shape must be what the benchmark's
// and the contract's add bodies are, or the parser would never be taken:
// 400 posts of each domain, encoded as encoding/json encodes them, carry no
// escape.
func TestDecodeAddMatchesDecodeJSON(t *testing.T) {
	for _, b := range addBodies {
		for _, chunk := range []int{1 << 20, 1, 7} {
			checkAddAgrees(t, []byte(b), chunk)
		}
	}
	long := strings.Repeat("word ", addReadMax/4)
	huge := strings.Repeat(" ", maxBodyBytes+10)
	for _, b := range []string{
		`{"text": "` + long + `"}`, `{"text": "x"}` + long, `{"text": "x"}` + huge, huge + `{"text": "x"}`, `{"text": "` + huge + `"}`,
	} {
		checkAddAgrees(t, []byte(b), 1<<20)
	}
	for d := forum.TechSupport; d <= forum.Health; d++ {
		for _, p := range forum.Generate(forum.Config{Domain: d, NumPosts: 400, Seed: 42}) {
			body, err := json.Marshal(AddRequest{Text: p.Text})
			if err != nil {
				t.Fatal(err)
			}
			if text, ok := parseAdd(body); !ok || text != p.Text {
				t.Fatalf("parseAdd left a %s post to the fallback: %s", d, body)
			}
			checkAddAgrees(t, body, 1<<20)
		}
	}
}

// FuzzAddBody: for arbitrary bytes in arbitrary read sizes, the hand
// parser + fallback and decodeJSON agree on accept/reject, the text, the
// status and the error body; and through the handler, /add answers 200,
// 400 or 413 and never panics.
func FuzzAddBody(f *testing.F) {
	for i, b := range addBodies {
		f.Add([]byte(b), uint16(i*37))
	}
	h := New(&stubEngine{}, Config{SlowQuery: -1}).Handler()
	f.Fuzz(func(t *testing.T, body []byte, chunk uint16) {
		checkAddAgrees(t, body, int(chunk)+1)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/add", bytes.NewReader(body)))
		if rec.Code != http.StatusOK && rec.Code != http.StatusBadRequest && rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("/add %q answered %d %s", body, rec.Code, rec.Body)
		}
	})
}

// edgeScores are where encoding/json's float form changes: zero and its
// negative, subnormals, the switch to exponent form below 1e-6 and from
// 1e21 (with the exponent's leading zero trimmed: 1e-07 → 1e-7), and the
// neighbours of both thresholds.
var edgeScores = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 123456789.125, 5e-324, 2.2250738585072014e-308, 1e-300, 1e300, math.MaxFloat64,
	1e-7, 1.5e-7, 1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), 1e-9, 1e-10, 1.234e-100,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), 1e20, 1e22, 1.5e100, -1e-7, -1e21, -5e-324,
}

// mustAppendRelated checks appendRelated against the oracle for one
// complete plain answer.
func mustAppendRelated(t *testing.T, key cache.Key, results []match.Result) {
	t.Helper()
	ans := match.Answer{Results: results}
	want, err := encodeBody(relatedResponse(key, ans))
	if err != nil {
		t.Fatal(err)
	}
	got, err := encodeRelated(key, ans)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("encodeRelated (err %v):\n%s\nencodeBody:\n%s", err, got, want)
	}
	if direct := appendRelated(nil, key, results); !bytes.Equal(direct, want) {
		t.Fatalf("appendRelated was not the path taken:\n%s\nencodeBody:\n%s", direct, want)
	}
}

// TestAppendEncodersMatchEncodeBody holds the append encoders to
// encodeBody byte for byte: every plain 200 body the contract corpus can
// produce (the contract table's among them), the edge scores, random
// bit patterns, the empty answer, and every /add reply shape; and what
// they decline — explanations, missing shards, a score JSON cannot
// carry — still comes out of encodeBody, error included.
func TestAppendEncodersMatchEncodeBody(t *testing.T) {
	p := freshHygienePipeline(t, contractPosts, 0)
	for doc := 0; doc < contractPosts; doc++ {
		for _, k := range []int{3, 5} {
			ans, err := p.Query(context.Background(), doc, k, false)
			if err != nil {
				t.Fatal(err)
			}
			mustAppendRelated(t, cache.Key{Doc: doc, K: k}, ans.Results)
		}
	}
	mustAppendRelated(t, cache.Key{Doc: -7, K: 100}, nil)
	mustAppendRelated(t, cache.Key{Doc: math.MaxInt64, K: math.MinInt64}, []match.Result{})
	var edge []match.Result
	for i, s := range edgeScores {
		edge = append(edge, match.Result{DocID: i - 3, Score: s})
		mustAppendRelated(t, cache.Key{Doc: i, K: 1}, edge[i:])
	}
	mustAppendRelated(t, cache.Key{Doc: 1, K: len(edge)}, edge)
	rng := rand.New(rand.NewSource(27))
	for i := 0; i < 20000; i++ {
		s := math.Float64frombits(rng.Uint64())
		if i%2 == 0 { // half of them in a score's range, at every magnitude near the thresholds
			s = rng.Float64() * math.Pow(10, float64(rng.Intn(40)-12))
		}
		if math.IsNaN(s) || math.IsInf(s, 0) {
			continue
		}
		mustAppendRelated(t, cache.Key{Doc: i, K: 5}, []match.Result{{DocID: rng.Int(), Score: s}, {DocID: -i, Score: -s}})
	}

	for _, id := range []int{0, 1, contractPosts, -1, math.MaxInt64, math.MinInt64} {
		want, _ := encodeBody(AddResponse{DocID: id})
		if got := appendAdd(nil, id); !bytes.Equal(got, want) {
			t.Fatalf("appendAdd(%d) = %q, encodeBody %q", id, got, want)
		}
	}

	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		ans := match.Answer{Results: []match.Result{{DocID: 1, Score: 0.5}, {DocID: 2, Score: bad}}}
		_, want := encodeBody(relatedResponse(cache.Key{Doc: 1, K: 2}, ans))
		if _, err := encodeRelated(cache.Key{Doc: 1, K: 2}, ans); want == nil || err == nil || err.Error() != want.Error() {
			t.Fatalf("score %v: encodeRelated err %v, encodeBody err %v", bad, err, want)
		}
	}
	partial := match.Answer{Results: edge[:2], Partial: true, Missing: []int{2}}
	want, _ := encodeBody(relatedResponse(cache.Key{Doc: 1, K: 2}, partial))
	if got, err := encodeRelated(cache.Key{Doc: 1, K: 2}, partial); err != nil || !bytes.Equal(got, want) || !bytes.Contains(got, []byte("shards_missing")) {
		t.Fatalf("partial answer: %s (err %v)", got, err)
	}
}
