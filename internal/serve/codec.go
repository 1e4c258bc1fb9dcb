package serve

import (
	"bytes"
	"io"
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"

	"repro/internal/cache"
	"repro/internal/match"
)

// decodeRelated is decodeJSON for /related without reflection: one read
// into the statusWriter's buffer, and the one request shape — doc_id, k and
// explain, each at most once, any order, JSON whitespace, plain decimal
// integers — is parsed by hand. Anything else (a float, an escape, an
// unknown or repeated key, a body one read or the buffer did not hold,
// a read error) goes to decodeJSON over the same bytes, so acceptance,
// status and message are json.Decoder's (FuzzDecodeRelated); like it,
// this looks no further than the first value's closing brace.
func decodeRelated(sc *statusWriter, r *http.Request) (req RelatedRequest, ok bool) {
	buf := sc.buf[:cap(sc.buf)]
	n, _ := r.Body.Read(buf) // an error is decodeJSON's to meet again
	if parseRelated(buf[:n], &req) {
		return req, true
	}
	var slow RelatedRequest                                                 // escapes; on the heap only from here
	r.Body = io.NopCloser(io.MultiReader(bytes.NewReader(buf[:n]), r.Body)) // the server closes the body it made
	ok = decodeJSON(sc, r, &slow)                                           // done with buf before any reply reuses it
	return slow, ok
}

// parseRelated fills req from b if b starts with one object of the
// plain shape, and reports whether it did.
func parseRelated(b []byte, req *RelatedRequest) bool {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return false
	}
	for seen := 0; ; {
		i = skipSpace(b, i+1) // past the '{' or the ','
		field, rest := 0, b[i:]
		switch {
		case bytes.HasPrefix(rest, []byte(`"doc_id"`)):
			field, i = 1, i+8
		case bytes.HasPrefix(rest, []byte(`"k"`)):
			field, i = 2, i+3
		case bytes.HasPrefix(rest, []byte(`"explain"`)):
			field, i = 4, i+9
		case seen == 0 && len(rest) > 0 && rest[0] == '}':
			return true
		}
		if i = skipSpace(b, i); field == 0 || seen&field != 0 || i == len(b) || b[i] != ':' {
			return false
		}
		seen |= field
		i = skipSpace(b, i+1)
		switch {
		case field == 1:
			req.DocID, i = parseInt(b, i)
		case field == 2:
			req.K, i = parseInt(b, i)
		case bytes.HasPrefix(b[i:], []byte("true")):
			req.Explain, i = true, i+4
		case bytes.HasPrefix(b[i:], []byte("false")):
			req.Explain, i = false, i+5
		default:
			return false
		}
		if i < 0 {
			return false
		}
		if i = skipSpace(b, i); i == len(b) || (b[i] != ',' && b[i] != '}') {
			return false
		}
		if b[i] == '}' {
			return true
		}
	}
}

// addReadMax bounds how much of an /add body decodeAdd reads into the
// statusWriter's buffer, which it grows and keeps for the writer's next
// request; a forum post is a few kilobytes.
const addReadMax = 64 << 10

// decodeAdd is decodeRelated for /add: the body, read to its end or to
// addReadMax, is taken by hand when it starts with the plain shape
// {"text": "..."} — a string without an escape or a control byte, in valid
// UTF-8, so the bytes are the text — and handed to decodeJSON over the same
// bytes otherwise (FuzzAddBody).
func decodeAdd(sc *statusWriter, r *http.Request) (text string, ok bool) {
	b := sc.buf[:0]
	for len(b) < addReadMax {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Body.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			break // an error is decodeJSON's to meet again
		}
	}
	sc.buf = b[:0]
	if text, ok := parseAdd(b); ok {
		return text, true
	}
	var slow AddRequest
	r.Body = io.NopCloser(io.MultiReader(bytes.NewReader(b), r.Body))
	ok = decodeJSON(sc, r, &slow)
	return slow.Text, ok
}

// parseAdd returns the text of b if b starts with one object of the plain
// shape, and reports whether it did.
func parseAdd(b []byte) (string, bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return "", false
	}
	if i = skipSpace(b, i+1); !bytes.HasPrefix(b[i:], []byte(`"text"`)) {
		return "", false
	}
	if i = skipSpace(b, i+6); i == len(b) || b[i] != ':' {
		return "", false
	}
	if i = skipSpace(b, i+1); i == len(b) || b[i] != '"' {
		return "", false
	}
	text := b[i+1:]
	end := bytes.IndexByte(text, '"')
	if end < 0 {
		return "", false
	}
	text = text[:end]
	for _, c := range text {
		if c < 0x20 || c == '\\' {
			return "", false
		}
	}
	if i = skipSpace(b, i+end+2); i == len(b) || b[i] != '}' || !utf8.Valid(text) {
		return "", false
	}
	return string(text), true
}

// parseInt reads -?(0|[1-9][0-9]{0,8}) at b[i:] and returns the value
// and the offset past it, or offset -1 for anything else.
func parseInt(b []byte, i int) (int, int) {
	start, v := i, 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	digits := i
	for ; i < len(b) && b[i]-'0' <= 9; i++ {
		v = v*10 + int(b[i]-'0')
	}
	if n := i - digits; n == 0 || n > 9 || (n > 1 && b[digits] == '0') {
		return 0, -1
	}
	if b[start] == '-' {
		v = -v
	}
	return v, i
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\n' || b[i] == '\t' || b[i] == '\r') {
		i++
	}
	return i
}

// encodeRelated is encodeBody(relatedResponse(key, ans)), appended
// directly for the plain complete answer: no explanations, no missing
// shards, finite scores (TestAppendEncodersMatchEncodeBody).
func encodeRelated(key cache.Key, ans match.Answer) ([]byte, error) {
	if !key.Explain && !ans.Partial && len(ans.Missing) == 0 {
		if b := appendRelated(make([]byte, 0, 64+80*len(ans.Results)), key, ans.Results); b != nil {
			return b, nil
		}
	}
	return encodeBody(relatedResponse(key, ans))
}

// appendRelated appends encodeBody's bytes for a RelatedResponse of
// doc_id, k and results, or returns nil at a score JSON cannot carry.
func appendRelated(b []byte, key cache.Key, results []match.Result) []byte {
	b = strconv.AppendInt(append(b, "{\n  \"doc_id\": "...), int64(key.Doc), 10)
	b = strconv.AppendInt(append(b, ",\n  \"k\": "...), int64(key.K), 10)
	b = append(b, ",\n  \"results\": ["...)
	for i, r := range results {
		if math.IsNaN(r.Score) || math.IsInf(r.Score, 0) {
			return nil
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(append(b, "\n    {\n      \"doc_id\": "...), int64(r.DocID), 10)
		b = appendFloat(append(b, ",\n      \"score\": "...), r.Score)
		b = append(b, "\n    }"...)
	}
	if len(results) > 0 {
		b = append(b, "\n  "...)
	}
	return append(b, "]\n}\n"...)
}

// appendFloat is encoding/json's float64: shortest round-trip 'f', or
// 'e' below 1e-6 and from 1e21, a two-digit exponent's zero dropped.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// appendAdd appends the body encodeBody gives AddResponse{DocID: id}.
func appendAdd(b []byte, id int) []byte {
	b = strconv.AppendInt(append(b, "{\n  \"doc_id\": "...), int64(id), 10)
	return append(b, "\n}\n"...)
}
