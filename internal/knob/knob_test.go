package knob

import (
	"errors"
	"flag"
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

// A toy command with three modes: a, b and c.
const (
	a Modes = 1 << iota
	b
	c
)

type toy struct {
	name, kind string
	count      int
	seed       int64
	wait       time.Duration
	verbose    bool
	queue      int
}

func (o *toy) table() *Table {
	return &Table{Modes: []string{"a", "b", "c"}, Rows: []Row{
		{Name: "name", Value: &o.name, Default: "", Modes: a | b | c, Help: "a name | with a bar"},
		{Name: "kind", Value: &o.kind, Default: "x", Modes: a | b, Range: OneOf("x", "y")},
		{Name: "count", Value: &o.count, Default: 5, Modes: a, Range: Between(1, 10)},
		{Name: "seed", Value: &o.seed, Default: int64(1), Modes: a | c, Range: AtLeast(0)},
		{Name: "wait", Value: &o.wait, Default: time.Second, Modes: b, Range: AtLeast(1)},
		{Name: "verbose", Value: &o.verbose, Default: false, Modes: c},
		{Name: "queue", Value: &o.queue, Default: 0, Modes: a, Needs: "count"},
	}}
}

// check parses args in mode.
func check(t *testing.T, mode Modes, args ...string) error {
	t.Helper()
	return new(toy).table().Parse("toy", args, func() Modes { return mode })
}

func TestCheck(t *testing.T) {
	for _, tc := range []struct {
		mode Modes
		args []string
		want string // "" for no error, else the error's prefix
	}{
		{a, nil, ""},
		{a, []string{"-name", "n", "-kind", "y", "-count", "10", "-seed", "0"}, ""},
		{b, []string{"-wait", "1ns", "-kind", "x"}, ""},
		{c, []string{"-verbose", "-seed", "9"}, ""},
		{a, []string{"-count", "2", "-queue", "3"}, ""},
		{a, []string{"-kind", "z"}, `-kind "z" is none of "x", "y"`},
		{a, []string{"-count", "0"}, "-count 0 is outside its range 1 to 10"},
		{a, []string{"-count", "11"}, "-count 11 is outside its range 1 to 10"},
		{c, []string{"-seed", "-1"}, "-seed -1 is outside its range ≥ 0"},
		{b, []string{"-wait", "0s"}, "-wait 0s is outside its range ≥ 1ns"},
		{c, []string{"-count", "2"}, "-count is not read in c mode (read in: a)"},
		{c, []string{"-kind", "y"}, "-kind is not read in c mode (read in: every mode but c)"},
		{b, []string{"-seed", "0"}, "-seed is not read in b mode (read in: every mode but b)"},
		// A range error comes first, whatever the mode says.
		{c, []string{"-count", "0", "-kind", "y"}, "-count 0 is outside"},
		{a, []string{"-queue", "3"}, "-queue is read only beside -count"},
		{a, []string{"-queue", "3", "-count", "5"}, "-queue is read only beside -count"},
	} {
		err := check(t, tc.mode, tc.args...)
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%v in %b: %v", tc.args, tc.mode, err)
		case tc.want != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.want)):
			t.Errorf("%v in %b: error %v, want %q…", tc.args, tc.mode, err, tc.want)
		}
	}
}

func TestParseDefaults(t *testing.T) {
	o := new(toy)
	if err := o.table().Parse("toy", nil, func() Modes { return a }); err != nil {
		t.Fatal(err)
	}
	if *o != (toy{kind: "x", count: 5, seed: 1, wait: time.Second}) {
		t.Errorf("defaults %+v", *o)
	}
	defer func() {
		if recover() == nil {
			t.Error("a row holding a float registered")
		}
	}()
	var f float64
	(&Table{Rows: []Row{{Name: "f", Value: &f, Default: 0.0}}}).Parse("toy", nil, nil)
}

// TestUsageIsTheTable: -h prints the rows' table, and a flag the rows
// do not define is refused with it.
func TestUsageIsTheTable(t *testing.T) {
	stderr := os.Stderr
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stderr = w
	tab := new(toy).table()
	errHelp := tab.Parse("toy", []string{"-h"}, nil)
	errUndefined := tab.Parse("toy", []string{"-bogus"}, nil)
	os.Stderr = stderr
	w.Close()
	out, _ := io.ReadAll(r)
	if !errors.Is(errHelp, flag.ErrHelp) || errUndefined == nil || !strings.Contains(errUndefined.Error(), "-bogus") {
		t.Errorf("-h: %v; -bogus: %v", errHelp, errUndefined)
	}
	if want := "Usage of toy:\n\n" + tab.Markdown(); strings.Count(string(out), want) != 2 {
		t.Errorf("usage:\n%s\nwant twice:\n%s", out, want)
	}
}

func TestMarkdown(t *testing.T) {
	want := "| Flag | Default | Accepts | Read in | Meaning |\n|---|---|---|---|---|\n" +
		"| `-name` |  |  | every mode | a name \\| with a bar |\n" +
		"| `-kind` | `x` | \"x\", \"y\" | every mode but c |  |\n" +
		"| `-count` | `5` | 1 to 10 | a |  |\n" +
		"| `-seed` | `1` | ≥ 0 | every mode but b |  |\n" +
		"| `-wait` | `1s` | ≥ 1ns | b |  |\n" +
		"| `-verbose` | `false` |  | c |  |\n" +
		"| `-queue` | `0` |  | a, beside `-count` |  |\n"
	if got := new(toy).table().Markdown(); got != want {
		t.Errorf("Markdown:\n%s\nwant:\n%s", got, want)
	}
}
