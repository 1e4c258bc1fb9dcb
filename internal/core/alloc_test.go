package core

import (
	"testing"

	"repro/internal/forum"
	"repro/internal/obs"
)

// TestRelatedAllocations gates the Fig 11(c) hot path — an untraced
// Related on the 1 000-post tech corpus — at 20 allocations per query
// (it reads 18), and the metrics layer at none on top of that:
// recording enabled (spans, per-query histograms, pool counters all
// live) may not allocate more than recording disabled.
func TestRelatedAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	texts, _ := corpusTexts(t, forum.TechSupport, 1000, 42)
	p, err := Build(texts, Config{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	i := 0
	related := func() {
		p.Related(i%len(texts), 5)
		i++
	}
	disabled := testing.AllocsPerRun(1000, related)
	obs.Enable()
	t.Cleanup(obs.Disable)
	enabled := testing.AllocsPerRun(1000, related)
	t.Logf("allocs per Related: %v with obs disabled, %v enabled", disabled, enabled)
	if disabled > 20 {
		t.Errorf("untraced Related: %v allocs per query, want at most 20", disabled)
	}
	if enabled > disabled {
		t.Errorf("obs enabled: %v allocs per query, %v disabled — recording must not allocate", enabled, disabled)
	}
}
