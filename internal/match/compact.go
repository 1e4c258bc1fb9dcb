package match

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"repro/internal/cm"
	"repro/internal/index"
	"repro/internal/secfile"
)

// Compact on-disk codec for a built MR matcher: a secfile container —
// magic "RFCM", version 1 — holding everything the online phase needs.
// The per-document segment terms, which dominate the matcher's bytes
// (they are kept in token order for query-time TF computation), are
// interned against a matcher-level dictionary and referenced by varint
// id, and each cluster index is embedded as its own complete compact
// index file (magic "RFCI") with its own checksummed sections. The
// matcher in memory is the same tables: one index.Dict over "dict" and
// every cluster's terms, and "dseg" as segTable's one byte stream —
// its rows without their unit ids, which are the count of earlier rows
// in the cluster (units are assigned in document order, and ReadMR
// refuses a file whose are not), its term ids uvarints of the
// dictionary, not of the file. Sections:
//
//	"meta"  JSON header: matcher name and build statistics. JSON keeps
//	        the one low-volume section debuggable with standard tooling.
//	"dict"  interned term dictionary over every segment's terms,
//	        strictly ascending (secfile string table).
//	"dseg"  per-document segments: uvarint doc count, then per document
//	        uvarint segment count and per segment, ascending in cluster,
//	        uvarint cluster id, unit id (in document order), term count,
//	        and term ids into "dict".
//	"udoc"  unit → owning document tables: uvarint cluster count, then
//	        per cluster uvarint unit count and uvarint doc ids.
//	"sgct"  Table 3 segment accounting: uvarint doc count, then the
//	        before column and the after column as uvarints.
//	"cent"  intention centroids, one per cluster in the Eq 5 space:
//	        uvarint count, uvarint dimension, then a fixed-width float64
//	        column, row-major.
//	"cidx"  cluster indices: uvarint count, then per cluster a uvarint
//	        length prefix and the embedded compact index bytes.
//
// ReadMR cross-checks the sections against each other (and against the
// decoded cluster indices) before anything is installed: every
// cluster/unit/term/doc reference must land in range and the
// unit-ownership tables must agree with the per-document segment lists,
// so an invariant-breaking snapshot fails at load with a descriptive
// error instead of panicking mid-query.

const (
	// CompactMRMagic identifies a compact matcher file.
	CompactMRMagic = "RFCM"
	// compactMRVersion is the newest compact matcher layout this build
	// writes and reads.
	compactMRVersion = 1
)

// compactMeta is the JSON "meta" section. Config is only ever read:
// older builds wrote their MRConfig there, and checkLegacy refuses the
// ones this build would serve differently.
type compactMeta struct {
	Name   string `json:"name"`
	Config *struct {
		NFactor                                     int
		ScoreThreshold                              float64
		NormalizeLists, ContentVectors, FullVectors bool
	} `json:"config,omitempty"`
	Stats BuildStats `json:"stats"`
}

// checkLegacy refuses a meta an older build wrote for a matcher this one
// would serve differently: Algorithm 2 knobs off its one shape (n = 2k,
// raw sums), or stages other than the paper's — Content-MR's term
// vectors, the full Eq 5+6 vectors, SentIntent-MR's sentence units. A
// loaded matcher answers by n = 2k and adds posts by Greedy borders and
// Eq 5 vectors, so loading any of them would silently answer or add
// otherwise than its build did.
func (m compactMeta) checkLegacy() error {
	c := m.Config
	var why string
	switch {
	case c == nil:
	case (c.NFactor != 0 && c.NFactor != 2) || c.ScoreThreshold != 0 || c.NormalizeLists:
		why = fmt.Sprintf("with Algorithm 2 knobs this build no longer serves (NFactor %d, ScoreThreshold %v, NormalizeLists %t)",
			c.NFactor, c.ScoreThreshold, c.NormalizeLists)
	case c.ContentVectors:
		why = "over term vectors (ContentVectors), which this build does not add posts by"
	case c.FullVectors:
		why = "over the full Eq 5+6 vectors (FullVectors), which this build does not add posts by"
	case m.Name == "SentIntent-MR":
		why = "as SentIntent-MR, whose sentence segmentation this build does not add posts by"
	}
	if why == "" {
		return nil
	}
	return fmt.Errorf("match: snapshot was built %s; rebuild it", why)
}

// appendCompactMR encodes the matcher's serializable state. Callers
// must hold at least mr.mu.RLock. Deterministic by construction (sorted
// dictionary, in-order walks), so write → read → re-write round-trips
// byte-identically.
func appendCompactMR(mr *MR) ([]byte, error) {
	meta, err := json.Marshal(compactMeta{Name: mr.name, Stats: mr.stats})
	if err != nil {
		return nil, fmt.Errorf("match: encoding meta: %w", err)
	}

	// The file's dictionary is the terms the segments use, ascending: a
	// pure function of the term set, not of the order the matcher's own
	// dictionary met them in or of what else (another shard's terms) it holds.
	st := &mr.segs
	names := mr.dict.Terms()
	fileID := make([]uint64, names.Len())
	var row []int32
	for d := range st.numDocs() {
		for rows := st.rows(d); rows.n > 0; {
			_, row = rows.next(row[:0])
			for _, t := range row {
				fileID[t] = 1
			}
		}
	}
	var used []int32
	for id, mark := range fileID {
		if mark != 0 {
			used = append(used, int32(id))
		}
	}
	index.SortByTerm(names, used)
	dict := make([][]byte, len(used))
	for i, id := range used {
		dict[i], fileID[id] = names.Bytes(id), uint64(i)
	}
	dictSec := secfile.AppendStringTable(nil, dict)

	// A row's unit is the count of earlier rows in its cluster: units
	// are assigned in document order.
	dseg := secfile.AppendUvarint(nil, uint64(st.numDocs()))
	units := make([]int, len(mr.clusters))
	for d := range st.numDocs() {
		rows := st.rows(d)
		dseg = secfile.AppendUvarint(dseg, uint64(rows.n))
		for rows.n > 0 {
			var c int
			c, row = rows.next(row[:0])
			dseg = secfile.AppendUvarint(dseg, uint64(c))
			dseg = secfile.AppendUvarint(dseg, uint64(units[c]))
			units[c]++
			dseg = secfile.AppendUvarint(dseg, uint64(len(row)))
			for _, t := range row {
				dseg = secfile.AppendUvarint(dseg, fileID[t])
			}
		}
	}

	udoc := secfile.AppendUvarint(nil, uint64(len(mr.unitDoc)))
	for _, owners := range mr.unitDoc {
		udoc = secfile.AppendUvarint(udoc, uint64(len(owners)))
		for _, d := range owners {
			udoc = secfile.AppendUvarint(udoc, uint64(d))
		}
	}

	sgct := secfile.AppendUvarint(nil, uint64(len(mr.before)))
	for _, v := range mr.before {
		sgct = secfile.AppendUvarint(sgct, uint64(v))
	}
	for d := range mr.before {
		sgct = secfile.AppendUvarint(sgct, uint64(st.rows(d).n))
	}

	dim := 0
	if len(mr.centroids) > 0 {
		dim = len(mr.centroids[0])
	}
	cent := secfile.AppendUvarint(nil, uint64(len(mr.centroids)))
	cent = secfile.AppendUvarint(cent, uint64(dim))
	for _, c := range mr.centroids {
		if len(c) != dim {
			return nil, fmt.Errorf("match: ragged centroids (%d-dim row in %d-dim space)", len(c), dim)
		}
		cent = secfile.AppendFloat64s(cent, c)
	}

	cidx := secfile.AppendUvarint(nil, uint64(len(mr.clusters)))
	for c, ix := range mr.clusters {
		var buf bytes.Buffer
		if _, err := ix.WriteTo(&buf); err != nil {
			return nil, fmt.Errorf("match: encoding cluster %d index: %w", c, err)
		}
		cidx = secfile.AppendUvarint(cidx, uint64(buf.Len()))
		cidx = append(cidx, buf.Bytes()...)
	}

	var out bytes.Buffer
	_, err = secfile.Encode(&out, CompactMRMagic, compactMRVersion, []secfile.Section{
		{Tag: "meta", Data: meta},
		{Tag: "dict", Data: dictSec},
		{Tag: "dseg", Data: dseg},
		{Tag: "udoc", Data: udoc},
		{Tag: "sgct", Data: sgct},
		{Tag: "cent", Data: cent},
		{Tag: "cidx", Data: cidx},
	})
	return out.Bytes(), err
}

// ReadMR parses and cross-validates a compact matcher file held in
// memory (read, mapped, or embedded in a pipeline snapshot), as written
// by WriteTo. Its terms are interned into dict — the shards of a group
// share one — or a fresh one when dict is nil. Bytes after a valid
// matcher are an error. Nothing of the result aliases data.
func ReadMR(data []byte, dict *index.Dict) (*MR, error) {
	if dict == nil {
		dict = index.NewDict()
	}
	f, err := secfile.Decode(data, CompactMRMagic, compactMRVersion)
	if err != nil {
		return nil, err
	}

	metaSec, err := f.Section("meta")
	if err != nil {
		return nil, err
	}
	var meta compactMeta
	if err := json.Unmarshal(metaSec, &meta); err != nil {
		return nil, fmt.Errorf("match: decoding meta: %w", err)
	}
	if err := meta.checkLegacy(); err != nil {
		return nil, err
	}

	dictSec, err := f.Section("dict")
	if err != nil {
		return nil, err
	}
	names, rest, err := secfile.ParseStringTable(dictSec)
	if err != nil {
		return nil, fmt.Errorf("match: term dictionary: %w", err)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("match: %d trailing bytes in term dictionary", len(rest))
	}
	// Two file ids of one term would intern to one dictionary id, and
	// the rows would name a term the cluster indices do not.
	for i := 1; i < len(names); i++ {
		if names[i] <= names[i-1] {
			return nil, fmt.Errorf("match: term dictionary not strictly ascending at entry %d (%q after %q)", i, names[i], names[i-1])
		}
	}
	termID := dict.AppendIDs(make([]int32, 0, len(names)), names) // file id → dictionary id

	// Cluster indices first: the docSeg/unitDoc validation below needs
	// the per-cluster unit counts.
	cidxSec, err := f.Section("cidx")
	if err != nil {
		return nil, err
	}
	nClusters64, cidxSec, err := secfile.Uvarint(cidxSec)
	if err != nil {
		return nil, fmt.Errorf("match: cluster count: %w", err)
	}
	if nClusters64 > uint64(len(cidxSec)) { // each index has a ≥ 1-byte length prefix
		return nil, fmt.Errorf("match: %d cluster indices declared in %d bytes", nClusters64, len(cidxSec))
	}
	nClusters := int(nClusters64)
	clusters := make([]*index.Index, nClusters)
	for c := range clusters {
		blobLen, rest, err := secfile.Uvarint(cidxSec)
		if err != nil {
			return nil, fmt.Errorf("match: cluster %d index length: %w", c, err)
		}
		cidxSec = rest
		if blobLen > uint64(len(cidxSec)) {
			return nil, fmt.Errorf("match: cluster %d index truncated: needs %d bytes, have %d", c, blobLen, len(cidxSec))
		}
		clusters[c] = index.NewIn(dict)
		if err := clusters[c].Load(cidxSec[:blobLen]); err != nil {
			return nil, fmt.Errorf("match: decoding cluster %d: %w", c, err)
		}
		cidxSec = cidxSec[blobLen:]
	}
	if len(cidxSec) != 0 {
		return nil, fmt.Errorf("match: %d trailing bytes in cluster index section", len(cidxSec))
	}

	dsegSec, err := f.Section("dseg")
	if err != nil {
		return nil, err
	}
	nDocs64, dsegSec, err := secfile.Uvarint(dsegSec)
	if err != nil {
		return nil, fmt.Errorf("match: document count: %w", err)
	}
	if nDocs64 > uint64(len(dsegSec)) { // each document has a ≥ 1-byte segment count
		return nil, fmt.Errorf("match: %d documents declared in %d bytes", nDocs64, len(dsegSec))
	}
	nDocs := int(nDocs64)
	// Room for the ids re-encoded as they are in the file, which is what
	// a fresh dictionary's ids are; cut to size after the read. unitDoc
	// is what the rows say each cluster's units are: the documents with
	// a row in it, ascending, since units are assigned in document order.
	st := segTable{docEnd: make([]int32, 0, nDocs), data: make([]byte, 0, len(dsegSec))}
	unitDoc := make([][]int32, nClusters)
	for c, ix := range clusters {
		unitDoc[c] = make([]int32, 0, ix.NumUnits())
	}
	var row []int32
	for d := 0; d < nDocs; d++ {
		nSegs, rest, err := secfile.Uvarint(dsegSec)
		if err != nil {
			return nil, fmt.Errorf("match: doc %d segment count: %w", d, err)
		}
		dsegSec = rest
		if nSegs > uint64(nClusters) {
			return nil, fmt.Errorf("match: doc %d declares %d refined segments over %d clusters", d, nSegs, nClusters)
		}
		st.startDoc(int(nSegs))
		prev := -1
		for i := 0; i < int(nSegs); i++ {
			c, r1, err := secfile.Uvarint(dsegSec)
			if err != nil {
				return nil, fmt.Errorf("match: doc %d segment %d cluster: %w", d, i, err)
			}
			u, r2, err := secfile.Uvarint(r1)
			if err != nil {
				return nil, fmt.Errorf("match: doc %d segment %d unit: %w", d, i, err)
			}
			nt, r3, err := secfile.Uvarint(r2)
			if err != nil {
				return nil, fmt.Errorf("match: doc %d segment %d term count: %w", d, i, err)
			}
			dsegSec = r3
			if c >= uint64(nClusters) {
				return nil, fmt.Errorf("match: doc %d segment %d cluster %d out of range [0, %d)", d, i, c, nClusters)
			}
			if int(c) <= prev {
				return nil, fmt.Errorf("match: doc %d segment %d in cluster %d follows one in cluster %d: a document's segments ascend in cluster",
					d, i, c, prev)
			}
			prev = int(c)
			if u >= uint64(clusters[c].NumUnits()) {
				return nil, fmt.Errorf("match: doc %d segment %d unit %d out of range for cluster %d (%d units)",
					d, i, u, c, clusters[c].NumUnits())
			}
			if want := len(unitDoc[c]); u != uint64(want) {
				return nil, fmt.Errorf("match: doc %d segment %d claims cluster %d unit %d, but units are in document order: its unit is %d",
					d, i, c, u, want)
			}
			unitDoc[c] = append(unitDoc[c], int32(d))
			if nt > uint64(len(dsegSec)) { // each term id is ≥ 1 byte
				return nil, fmt.Errorf("match: doc %d segment %d declares %d terms in %d bytes", d, i, nt, len(dsegSec))
			}
			row = row[:0]
			for ti := 0; ti < int(nt); ti++ {
				id, rest, err := secfile.Uvarint(dsegSec)
				if err != nil {
					return nil, fmt.Errorf("match: doc %d segment %d term %d: %w", d, i, ti, err)
				}
				dsegSec = rest
				if id >= uint64(len(termID)) {
					return nil, fmt.Errorf("match: doc %d segment %d term id %d out of dictionary range [0, %d)", d, i, id, len(termID))
				}
				row = append(row, termID[id])
			}
			st.appendSeg(int(c), row)
		}
	}
	if len(dsegSec) != 0 {
		return nil, fmt.Errorf("match: %d trailing bytes in segment section", len(dsegSec))
	}
	st.data = slices.Clone(st.data)

	// The ownership table must be the one the rows imply — Match resolves
	// unitDoc[cluster][result.Unit] on every query, and a mismatch here
	// means wrong neighbors, not a crash.
	udocSec, err := f.Section("udoc")
	if err != nil {
		return nil, err
	}
	nc, udocSec, err := secfile.Uvarint(udocSec)
	if err != nil {
		return nil, fmt.Errorf("match: ownership cluster count: %w", err)
	}
	if nc != uint64(nClusters) {
		return nil, fmt.Errorf("match: ownership table covers %d clusters, index section has %d", nc, nClusters)
	}
	for c, owners := range unitDoc {
		n, rest, err := secfile.Uvarint(udocSec)
		if err != nil {
			return nil, fmt.Errorf("match: cluster %d ownership count: %w", c, err)
		}
		udocSec = rest
		if n != uint64(clusters[c].NumUnits()) {
			return nil, fmt.Errorf("match: cluster %d ownership table has %d units, index has %d", c, n, clusters[c].NumUnits())
		}
		for u := 0; u < int(n); u++ {
			d, rest, err := secfile.Uvarint(udocSec)
			if err != nil {
				return nil, fmt.Errorf("match: cluster %d unit %d owner: %w", c, u, err)
			}
			udocSec = rest
			if d >= uint64(nDocs) {
				return nil, fmt.Errorf("match: cluster %d unit %d owned by doc %d out of range [0, %d)", c, u, d, nDocs)
			}
			if u >= len(owners) {
				return nil, fmt.Errorf("match: cluster %d unit %d has no segment, ownership table says doc %d", c, u, d)
			}
			if d != uint64(owners[u]) {
				return nil, fmt.Errorf("match: doc %d claims cluster %d unit %d, ownership table says doc %d", owners[u], c, u, d)
			}
		}
	}
	if len(udocSec) != 0 {
		return nil, fmt.Errorf("match: %d trailing bytes in ownership section", len(udocSec))
	}

	sgctSec, err := f.Section("sgct")
	if err != nil {
		return nil, err
	}
	ns, sgctSec, err := secfile.Uvarint(sgctSec)
	if err != nil {
		return nil, fmt.Errorf("match: segment-count table: %w", err)
	}
	if ns != uint64(nDocs) {
		return nil, fmt.Errorf("match: segment-count table covers %d documents, segment section has %d", ns, nDocs)
	}
	before := make([]int32, nDocs)
	after := make([]int32, nDocs)
	for _, col := range [][]int32{before, after} {
		for i := range col {
			v, rest, err := secfile.Uvarint(sgctSec)
			if err != nil {
				return nil, fmt.Errorf("match: segment-count entry %d: %w", i, err)
			}
			sgctSec = rest
			if v > uint64(math.MaxInt32) {
				return nil, fmt.Errorf("match: segment count %d out of range", v)
			}
			col[i] = int32(v)
		}
	}
	if len(sgctSec) != 0 {
		return nil, fmt.Errorf("match: %d trailing bytes in segment-count section", len(sgctSec))
	}
	for d := range after {
		if n := st.rows(d).n; int(after[d]) != n {
			return nil, fmt.Errorf("match: doc %d declares %d refined segments but carries %d", d, after[d], n)
		}
	}

	centSec, err := f.Section("cent")
	if err != nil {
		return nil, err
	}
	k, centSec, err := secfile.Uvarint(centSec)
	if err != nil {
		return nil, fmt.Errorf("match: centroid count: %w", err)
	}
	dim, centSec, err := secfile.Uvarint(centSec)
	if err != nil {
		return nil, fmt.Errorf("match: centroid dimension: %w", err)
	}
	if k > uint64(math.MaxUint16) || dim > uint64(math.MaxUint16) {
		return nil, fmt.Errorf("match: centroid shape %d×%d out of range", k, dim)
	}
	if uint64(len(centSec)) != k*dim*8 {
		return nil, fmt.Errorf("match: centroid column of %d×%d needs %d bytes, have %d", k, dim, k*dim*8, len(centSec))
	}
	// Add assigns a new post's segments to the nearest centroid by its Eq 5
	// vector, so there is one centroid per cluster, in that space. A build
	// over no segments has clusters, all empty, and no centroids.
	units := 0
	for _, ix := range clusters {
		units += ix.NumUnits()
	}
	switch {
	case k == 0 && units == 0:
	case k != uint64(nClusters):
		return nil, fmt.Errorf("match: %d centroids for %d clusters", k, nClusters)
	case dim != uint64(cm.NumFeatures):
		return nil, fmt.Errorf("match: %d-dim centroids, Eq 5 vectors have %d", dim, cm.NumFeatures)
	}
	centroids := make([][]float64, int(k))
	for i := range centroids {
		row, err := secfile.Float64Col(centSec[uint64(i)*dim*8:(uint64(i)+1)*dim*8], int(dim))
		if err != nil {
			return nil, fmt.Errorf("match: centroid %d: %w", i, err)
		}
		centroids[i] = row
	}

	mr := &MR{
		name:      meta.Name,
		dict:      dict,
		clusters:  clusters,
		unitDoc:   unitDoc,
		segs:      st,
		before:    before,
		centroids: centroids,
		stats:     meta.Stats,
	}
	return mr, nil
}
