package cm

// This file implements the segment weight vectors of Sec 6. A segment is
// represented for intention clustering by the concatenation of two
// 14-element weight vectors:
//
//   - Eq 5 (within-segment): each feature's share of its own communication
//     mean inside the segment — "how much stronger is the 2nd person than
//     the 1st or 3rd in this segment".
//   - Eq 6 (within-document): each feature's count in the segment divided by
//     its count in the whole document — "what portion of the document's past
//     tense verbs live in this segment".
//
// Both components are scale-free, which is what lets DBSCAN group segments
// from long and short posts into the same intention cluster.

// VectorLen is the dimensionality of a segment's clustering vector:
// NumFeatures weights of the first type followed by NumFeatures weights of
// the second type (28 with the Table-1 schema).
const VectorLen = int(2 * NumFeatures)

// WithinSegmentWeights computes the Eq 5 weight vector of a segment: for
// every feature, its count divided by the total observations of its
// communication mean within the segment. Means with no observations yield
// zero weights.
func WithinSegmentWeights(seg Annotation) []float64 {
	out := make([]float64, NumFeatures)
	for m := Mean(0); m < NumMeans; m++ {
		lo, hi := FeaturesOf(m)
		total := seg.Total(m)
		if total == 0 {
			continue
		}
		for f := lo; f < hi; f++ {
			out[f] = seg.Counts[f] / total
		}
	}
	return out
}

// withinDocumentWeights computes the Eq 6 weight vector of a segment: for
// every feature, its count in the segment divided by its count in the whole
// document (the DSb* table). Features absent from the document yield zero
// weights.
func withinDocumentWeights(seg, doc Annotation) []float64 {
	out := make([]float64, NumFeatures)
	for f := 0; f < int(NumFeatures); f++ {
		if doc.Counts[f] > 0 {
			out[f] = seg.Counts[f] / doc.Counts[f]
		}
	}
	return out
}

// WeightVector computes the full clustering representation of a segment:
// the Eq 5 vector concatenated with the Eq 6 vector.
func WeightVector(seg, doc Annotation) []float64 {
	out := make([]float64, 0, VectorLen)
	out = append(out, WithinSegmentWeights(seg)...)
	out = append(out, withinDocumentWeights(seg, doc)...)
	return out
}

// VectorFeatureName describes element i of a WeightVector for display
// (Fig 3 row labels): the CM-feature name plus which weight type it is.
func VectorFeatureName(i int) string {
	f := Feature(i % int(NumFeatures))
	name := MeanOf(f).String() + "-" + f.String()
	if i < int(NumFeatures) {
		return name + " (within-segment)"
	}
	return name + " (within-document)"
}
