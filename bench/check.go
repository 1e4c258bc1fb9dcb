package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"

	"repro/internal/core"
	"repro/internal/serve"
)

// diffRanking compares a served ranking with the reference, position by
// position: same document ids in the same order and float64 scores equal
// bit for bit (Go's JSON encoding round-trips a float64 exactly). It
// returns "" when they agree and the first difference otherwise.
func diffRanking(got []serve.RelatedResult, want []core.Result) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d results, reference has %d", len(got), len(want))
	}
	for i := range want {
		if got[i].DocID != want[i].DocID {
			return fmt.Sprintf("rank %d is doc %d, reference has doc %d", i, got[i].DocID, want[i].DocID)
		}
		if math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			return fmt.Sprintf("rank %d (doc %d) scores %v, reference %v", i, want[i].DocID, got[i].Score, want[i].Score)
		}
	}
	return ""
}

// probeRankings re-requests doc ids over HTTP and compares each answer
// with ref.Related. It returns one message per mismatch.
func probeRankings(c *client, base string, ref *core.Pipeline, docs []int) []string {
	var bad []string
	for _, doc := range docs {
		status, body, err := c.do(base, relatedOp(doc))
		if err != nil || status != http.StatusOK {
			bad = append(bad, fmt.Sprintf("doc %d: status %d, error %v", doc, status, err))
			continue
		}
		var resp serve.RelatedResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			bad = append(bad, fmt.Sprintf("doc %d: undecodable reply: %v", doc, err))
			continue
		}
		if d := diffRanking(resp.Results, ref.Related(doc, topK)); d != "" {
			bad = append(bad, fmt.Sprintf("doc %d: %s", doc, d))
		}
	}
	return bad
}

// checkAdds verifies the write side of a run: the ids the server
// acknowledged are unique and dense from the initial collection size,
// and /stats reports exactly that many more documents.
func checkAdds(c *client, base string, posts int, acked []int) []string {
	var bad []string
	sort.Ints(acked)
	for i, id := range acked {
		if id != posts+i {
			bad = append(bad, fmt.Sprintf("acknowledged add ids are not dense from %d: position %d holds %d", posts, i, id))
			break
		}
	}
	resp, err := c.hc.Get(base + "/stats")
	if err != nil {
		return append(bad, fmt.Sprintf("/stats: %v", err))
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return append(bad, fmt.Sprintf("/stats: undecodable reply: %v", err))
	}
	if want := posts + len(acked); st.NumDocs != want {
		bad = append(bad, fmt.Sprintf("/stats reports %d documents, want %d + %d acknowledged adds", st.NumDocs, posts, len(acked)))
	}
	return bad
}
