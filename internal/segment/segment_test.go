package segment

import (
	"reflect"
	"testing"

	"repro/internal/forum"
)

// docA is the motivating post of Fig. 1: context (present, first person),
// question (interrogative), past report, motive.
const docA = "I have an HP system with a RAID 0 controller and 4 disks in form " +
	"of a JBOD. I would like to install Hadoop with a replication 4 HDFS and " +
	"only 320GB of disk space used from every disc. Do you know whether it " +
	"would perform ok or whether the partial use of the disk would degrade " +
	"performance. Friends have downloaded the Cloudera distribution but it " +
	"didn't work. It stopped since the web site was suggesting to have 1TB " +
	"disks. I am asking because I do not want to install Linux to find that " +
	"my HW configuration is not right."

// threeIntentions is a post with three sharply different blocks: past
// narrative, interrogative request, present description.
const threeIntentions = "I installed the driver last week. I rebooted the machine twice. " +
	"I checked every cable in the office. " +
	"Do you know a better driver? Can you suggest a fix? Should I reformat the whole disk? " +
	"The printer is an HP model. It has a duplex unit. The tray holds paper."

func TestNewDoc(t *testing.T) {
	d := NewDoc(docA)
	if d.Len() != 6 {
		t.Fatalf("Doc A should have 6 sentence units, got %d", d.Len())
	}
	// Range must equal explicit merge.
	full := d.Range(0, d.Len())
	if full.Words == 0 {
		t.Fatal("full-range annotation has no words")
	}
	left := d.Range(0, 3)
	right := d.Range(3, 6)
	if got := left.Add(right); got != full {
		t.Error("Range(0,3)+Range(3,6) != Range(0,6)")
	}
}

func TestNewDocStripsHTML(t *testing.T) {
	d := NewDoc("<p>First sentence here.</p><p>Second sentence here.</p>")
	if d.Len() != 2 {
		t.Fatalf("expected 2 sentences after HTML stripping, got %d", d.Len())
	}
}

func TestSegmentationBasics(t *testing.T) {
	s := NewSegmentation([]int{3, 1, 3, 9, 0, -2}, 5)
	if !reflect.DeepEqual(s.Borders, []int{1, 3}) {
		t.Fatalf("normalized borders = %v", s.Borders)
	}
	if s.NumSegments() != 3 {
		t.Fatalf("NumSegments = %d, want 3", s.NumSegments())
	}
	want := [][2]int{{0, 1}, {1, 3}, {3, 5}}
	if !reflect.DeepEqual(s.Segments(), want) {
		t.Fatalf("Segments = %v, want %v", s.Segments(), want)
	}
}

func TestSegmentationEmpty(t *testing.T) {
	s := Segmentation{N: 0}
	if s.NumSegments() != 0 || s.Segments() != nil {
		t.Error("empty segmentation should have no segments")
	}
	s = Segmentation{N: 1}
	if s.NumSegments() != 1 {
		t.Error("single-unit doc is one segment")
	}
}

func TestStrategiesProduceValidSegmentations(t *testing.T) {
	docs := []*Doc{
		NewDoc(docA),
		NewDoc(threeIntentions),
		NewDoc("Single sentence only."),
		NewDoc(""),
	}
	strategies := []Strategy{Greedy{}, Greedy{Plain: true}}
	for _, d := range docs {
		for _, st := range strategies {
			seg := st.Segment(d)
			if seg.N != d.Len() {
				t.Errorf("%s: N = %d, want %d", st.Name(), seg.N, d.Len())
			}
			prev := 0
			for _, b := range seg.Borders {
				if b <= prev || b >= d.Len() {
					t.Errorf("%s: invalid border %d (n=%d, prev=%d)", st.Name(), b, d.Len(), prev)
				}
				prev = b
			}
		}
	}
}

func TestGreedyFindsIntentionShift(t *testing.T) {
	d := NewDoc(threeIntentions)
	seg := Greedy{}.Segment(d)
	if seg.NumSegments() < 2 {
		t.Fatalf("Greedy found no intention shift in a three-intention post: %v", seg.Borders)
	}
	if seg.NumSegments() > 7 {
		t.Fatalf("Greedy over-segmented: %d segments from 9 sentences", seg.NumSegments())
	}
	// The strongest shift — narrative past → interrogative — is between
	// sentence 3 and 3 questions; a border at 3 or 4 should exist.
	found := false
	for _, b := range seg.Borders {
		if b >= 3 && b <= 4 {
			found = true
		}
	}
	if !found {
		t.Errorf("expected a border near the narrative→question shift, got %v", seg.Borders)
	}
}

func TestGreedyMergesHomogeneousText(t *testing.T) {
	homog := "I installed the driver. I rebooted the machine. I checked the cable. " +
		"I replaced the toner. I tested the printer. I updated the firmware."
	d := NewDoc(homog)
	seg := Greedy{}.Segment(d)
	if seg.NumSegments() > 2 {
		t.Errorf("Greedy kept %d segments in a single-intention post (borders %v)",
			seg.NumSegments(), seg.Borders)
	}
}

func TestCharBorders(t *testing.T) {
	d := NewDoc(docA)
	seg := NewSegmentation([]int{2, 4}, d.Len())
	chars := seg.CharBorders(d.Sents)
	if len(chars) != 2 {
		t.Fatalf("CharBorders length = %d", len(chars))
	}
	for i, off := range chars {
		if off != d.Sents[seg.Borders[i]].Start {
			t.Errorf("char border %d = %d, want sentence start %d", i, off, d.Sents[seg.Borders[i]].Start)
		}
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 || std != 2 {
		t.Errorf("meanStd = %v, %v, want 5, 2", mean, std)
	}
	mean, std = MeanStd(nil)
	if mean != 0 || std != 0 {
		t.Error("MeanStd(nil) should be 0,0")
	}
}

// BenchmarkGreedySegment is Greedy's per-post cost on the benchmark's kind
// of post (bench's segment.greedy_us): what core.Build pays once per post
// and /add pays on the request path, after NewDoc.
func BenchmarkGreedySegment(b *testing.B) {
	docs := greedyDocs(512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkSeg = Greedy{}.Segment(docs[i%len(docs)])
	}
}

var sinkSeg Segmentation

func greedyDocs(n int) []*Doc {
	docs := make([]*Doc, n)
	for i, text := range tailPosts(forum.TechSupport, n) {
		docs[i] = NewDoc(text)
	}
	return docs
}

// TestGreedyAllocations pins what voting Greedy allocates a post: 3 — the
// score/depth columns, the vote tallies and the border list, nothing a
// border or a communication mean (the quadratic loop it replaced took 15
// on these posts). The bound is the measured count + 2.
func TestGreedyAllocations(t *testing.T) {
	docs := greedyDocs(256)
	i := 0
	perPost := testing.AllocsPerRun(len(docs), func() {
		sinkSeg = Greedy{}.Segment(docs[i%len(docs)])
		i++
	})
	t.Logf("Greedy allocates %.1f times a post", perPost)
	if perPost > 5 {
		t.Errorf("Greedy allocates %.1f times a post, want at most 5", perPost)
	}
}
