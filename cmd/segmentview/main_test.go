package main

import (
	"errors"
	"strings"
	"testing"
	"testing/iotest"
)

// docA is Doc A of the paper's Fig 1.
const docA = "I have an HP system with a RAID 0 controller and 4 disks in form of a JBOD. " +
	"I would like to install Hadoop with a replication 4 HDFS and only 320GB of disk space used from every disc. " +
	"Do you know whether it would perform ok or whether the partial use of the disk would degrade performance. " +
	"Friends have downloaded the Cloudera distribution but it didn't work. " +
	"It stopped since the web site was suggesting to have 1TB disks. " +
	"I am asking because I do not want to install Linux to find that my HW configuration is not right."

// docAView is what the command prints for Doc A: Fig 2's CM tracks, and
// the borders of Greedy and of each of internal/variant's segmenters.
const docAView = `6 sentence units

CM tracks (dominant categorical value per communication mean):
#    tense    subj    style     status    sentence
0    present  i/we    affirmative active    I have an HP system with a RAID 0 controller and 4 disks ...
1    present  i/we    affirmative active    I would like to install Hadoop with a replication 4 HDFS ...
2    present  you     interrog  active    Do you know whether it would perform ok or whether the pa...
3    past     she/they negative  active    Friends have downloaded the Cloudera distribution but it ...
4    past     she/they affirmative active    It stopped since the web site was suggesting to have 1TB ...
5    present  i/we    negative  active    I am asking because I do not want to install Linux to fin...

Segmentations (borders are sentence indices):
  Greedy       [1 2 3 4 5]  (6 segments)
  Tile         [1 2 3 5]  (5 segments)
  StepbyStep   [1 2 3 4 5]  (6 segments)
  TopDown      []  (1 segments)
  TextTiling   [3 4 5]  (4 segments)

Greedy segments:
  [0] I have an HP system with a RAID 0 controller and 4 disks in form of a JBOD.
  [1] I would like to install Hadoop with a replication 4 HDFS and only 320GB of disk space used from every disc.
  [2] Do you know whether it would perform ok or whether the partial use of the disk would degrade performance.
  [3] Friends have downloaded the Cloudera distribution but it didn't work.
  [4] It stopped since the web site was suggesting to have 1TB disks.
  [5] I am asking because I do not want to install Linux to find that my HW configuration is not right.
`

func TestGoldenFig1DocA(t *testing.T) {
	var out strings.Builder
	if err := run(strings.NewReader(docA+"\n"), &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != docAView {
		t.Errorf("output drifted:\n--- got\n%s--- want\n%s", out.String(), docAView)
	}
}

// TestRunRefusals: an input without a post is a badInput (exit 2), a
// failed read is not (exit 1).
func TestRunRefusals(t *testing.T) {
	for _, c := range []struct {
		name string
		in   string
		want string
	}{
		{"empty", " \n\t", "empty input; pipe a forum post on stdin"},
		{"markup only", "<p></p>", "no sentences found"},
	} {
		err := run(strings.NewReader(c.in), new(strings.Builder))
		if !errors.As(err, new(badInput)) || err.Error() != c.want {
			t.Errorf("%s: error %v, want the bad input %q", c.name, err, c.want)
		}
	}
	boom := errors.New("boom")
	if err := run(iotest.ErrReader(boom), new(strings.Builder)); !errors.Is(err, boom) || errors.As(err, new(badInput)) {
		t.Errorf("failed read: error %v, want %v and not a bad input", err, boom)
	}
}
