package obs

import (
	"math"
	"sort"
)

// Federated metric merging. The fleet coordinator scrapes each shard's
// raw registry snapshot (GET /internal/metricsz) and folds them into
// one fleet-wide view: counters and gauges add, histograms and spans
// merge bucket-wise. The bucket merge is exact — every obs histogram
// uses fixed power-of-two bounds (DurationBounds / countBounds), so two
// instances of the same instrument on different shards have identical
// bucket edges and their per-bucket counts simply sum. Quantiles are
// then recomputed from the merged buckets with the same interpolation
// Histogram.Snapshot uses, which is why BucketCount carries its
// exclusive lower bound GT: the merged snapshot is bit-identical to the
// snapshot a single histogram would have produced had it observed the
// combined sample stream (the property TestMergeMatchesCombinedStream
// pins).

// mergeHistogramSnapshots merges bucket-wise and recomputes Count, Sum,
// Mean, quantiles, and Max from the merged buckets. Buckets are keyed
// by their (GT, LE] interval; snapshots taken from histograms with
// different bounds simply contribute disjoint buckets (no error — the
// merge is still a valid histogram, just not one either side recorded).
func mergeHistogramSnapshots(snaps ...HistogramSnapshot) HistogramSnapshot {
	byLE := make(map[int64]*BucketCount)
	var out HistogramSnapshot
	for _, s := range snaps {
		out.Sum += s.Sum
		for _, b := range s.Buckets {
			if have, ok := byLE[b.LE]; ok {
				have.Count += b.Count
			} else {
				bc := b
				byLE[b.LE] = &bc
			}
		}
	}
	if len(byLE) == 0 {
		return out
	}
	out.Buckets = make([]BucketCount, 0, len(byLE))
	for _, b := range byLE {
		out.Buckets = append(out.Buckets, *b)
		out.Count += b.Count
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].LE < out.Buckets[j].LE })
	out.Mean = float64(out.Sum) / float64(out.Count)
	out.P50 = quantileFromBuckets(out.Buckets, out.Count, 0.50)
	out.P90 = quantileFromBuckets(out.Buckets, out.Count, 0.90)
	out.P99 = quantileFromBuckets(out.Buckets, out.Count, 0.99)
	out.P999 = quantileFromBuckets(out.Buckets, out.Count, 0.999)
	out.Max = out.Buckets[len(out.Buckets)-1].LE
	return out
}

// quantileFromBuckets is Histogram.quantile over a sparse bucket list:
// identical rank arithmetic and linear interpolation, with each
// bucket's (GT, LE] standing in for the bounds-slice lookups. Snapshots
// never contain empty buckets, so the skip branch of the original is
// structurally absent rather than skipped.
func quantileFromBuckets(buckets []BucketCount, total int64, q float64) float64 {
	rank := float64(q * float64(total))
	var cum int64
	for _, b := range buckets {
		prev := cum
		cum += b.Count
		if float64(cum) >= rank {
			if b.LE == math.MaxInt64 {
				return float64(b.GT)
			}
			frac := (rank - float64(prev)) / float64(b.Count)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return float64(b.GT) + float64(frac*float64(b.LE-b.GT))
		}
	}
	return float64(math.MaxInt64)
}

// MergeSnapshots folds whole registry snapshots: counters and gauges
// sum per name, histograms and spans merge per name via
// mergeHistogramSnapshots. Names present on only some shards appear
// with the values they have there — a fleet with per-shard instruments
// (fleet.host.NN.*) yields the union.
func MergeSnapshots(snaps ...Snapshot) Snapshot {
	out := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramSnapshot),
		Spans:      make(map[string]HistogramSnapshot),
	}
	histParts := make(map[string][]HistogramSnapshot)
	spanParts := make(map[string][]HistogramSnapshot)
	for _, s := range snaps {
		for name, v := range s.Counters {
			out.Counters[name] += v
		}
		for name, v := range s.Gauges {
			out.Gauges[name] += v
		}
		for name, h := range s.Histograms {
			histParts[name] = append(histParts[name], h)
		}
		for name, h := range s.Spans {
			spanParts[name] = append(spanParts[name], h)
		}
	}
	for name, parts := range histParts {
		out.Histograms[name] = mergeHistogramSnapshots(parts...)
	}
	for name, parts := range spanParts {
		out.Spans[name] = mergeHistogramSnapshots(parts...)
	}
	return out
}
