package core

import (
	"fmt"
	"testing"

	"repro/internal/forum"
	"repro/internal/obs"
)

// TestRelatedAllocations gates the Fig 11(c) hot path — an untraced
// Related on the 1 000-post tech corpus — unsharded and at 4 shards, each
// at what it reads plus 2, and the metrics layer at none on top of that:
// recording enabled (spans, per-query histograms, pool counters all
// live) may not allocate more than recording disabled.
func TestRelatedAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops objects at random under the race detector")
	}
	texts, _ := corpusTexts(t, forum.TechSupport, 1000, 42)
	for _, leg := range []struct {
		shards, ceiling int
	}{{0, 12}, {4, 25}} {
		t.Run(fmt.Sprintf("shards=%d", leg.shards), func(t *testing.T) {
			p, err := Build(texts, Config{Seed: 42, Shards: leg.shards})
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
			if disabled > float64(leg.ceiling) {
				t.Errorf("untraced Related: %v allocs per query, want at most %d", disabled, leg.ceiling)
			}
			if enabled > disabled {
				t.Errorf("obs enabled: %v allocs per query, %v disabled — recording must not allocate", enabled, disabled)
			}
		})
	}
}
