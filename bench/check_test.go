package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

func TestDiffRanking(t *testing.T) {
	want := []core.Result{{DocID: 7, Score: 1.25}, {DocID: 3, Score: 0.75}, {DocID: 9, Score: 0.1}}
	served := func() []serve.RelatedResult {
		out := make([]serve.RelatedResult, len(want))
		for i, r := range want {
			out[i] = serve.RelatedResult{DocID: r.DocID, Score: r.Score}
		}
		return out
	}

	if d := diffRanking(served(), want); d != "" {
		t.Errorf("identical rankings differ: %s", d)
	}

	perturbed := served()
	perturbed[1].Score = math.Nextafter(perturbed[1].Score, 1) // one unit in the last place
	if d := diffRanking(perturbed, want); !strings.Contains(d, "rank 1") {
		t.Errorf("a score off by one ulp was not caught: %q", d)
	}

	swapped := served()
	swapped[0], swapped[1] = swapped[1], swapped[0]
	if d := diffRanking(swapped, want); !strings.Contains(d, "rank 0") {
		t.Errorf("two swapped ranks were not caught: %q", d)
	}

	if d := diffRanking(served()[:2], want); d == "" {
		t.Error("a truncated ranking was not caught")
	}
}
