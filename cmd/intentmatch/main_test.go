package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/forum"
	"repro/internal/knob"
)

// modeArgs are the flags that choose each mode, with placeholder
// files: parseFlags opens none of them.
var modeArgs = map[knob.Modes][]string{
	intentQuery:   nil,
	intentSave:    {"-save", "built.idx"},
	fulltextBuild: {"-method", "fulltext"},
	seededBuild:   {"-method", "lda"},
	loaded:        {"-load", "built.idx"},
}

// ignoredBefore are the (flag, mode) pairs that intentmatch ran with
// and then ignored: 9 before the knob table, and -seed beside -method
// fulltext after it; each must stay refused.
var ignoredBefore = []struct {
	flag string
	mode knob.Modes
}{
	{"corpus", loaded}, {"method", loaded}, {"seed", loaded}, {"save", loaded}, {"save-shards", loaded},
	{"save-shards", intentQuery}, {"query", intentSave}, {"k", intentSave}, {"explain", intentSave},
	{"seed", fulltextBuild},
}

// sample is a value of r inside its range and off its default.
func sample(r knob.Row) string {
	switch d := r.Default.(type) {
	case bool:
		return strconv.FormatBool(!d)
	case string:
		if r.Range != nil {
			return r.Range.OneOf[slices.IndexFunc(r.Range.OneOf, func(v string) bool { return v != d })]
		}
		return d + "x"
	case int:
		return strconv.Itoa(d + 1)
	}
	return strconv.FormatInt(r.Default.(int64)+1, 10)
}

// outside are values of r that its range refuses.
func outside(r knob.Row) []string {
	if r.Range == nil {
		return nil
	}
	if r.Range.OneOf != nil {
		return []string{"bogus"}
	}
	vals := []string{strconv.FormatInt(r.Range.Min-1, 10)}
	if r.Range.Max != math.MaxInt64 {
		vals = append(vals, strconv.FormatInt(r.Range.Max+1, 10))
	}
	return vals
}

// namesFlag reports whether err is an error that begins with -name.
func namesFlag(err error, name string) bool {
	return err != nil && (strings.HasPrefix(err.Error(), "-"+name+" ") || strings.HasPrefix(err.Error(), "-"+name+":"))
}

// TestFlagRefusals is generated from the rows: every flag set in every
// mode that does not read it and every value outside a row's range
// (-k 0 and -save-shards -1 among them) is refused with an error that
// names it, while each mode's own flags, at their defaults and at
// another value, pass.
func TestFlagRefusals(t *testing.T) {
	rows := new(options).table().Rows
	refused := map[string]bool{}
	for m, base := range modeArgs {
		o, err := parseFlags(base)
		if err != nil || o.mode() != m {
			t.Fatalf("%v: mode %b, error %v; want mode %b and no error", base, o.mode(), err, m)
		}
		for _, r := range rows {
			args := append(slices.Clone(base), "-"+r.Name, sample(r))
			o, err := parseFlags(args)
			switch {
			case o.mode() != m: // the flag chooses another mode
			case r.Modes&m == 0:
				if !namesFlag(err, r.Name) {
					t.Errorf("%v: error %v, want -%s refused by name", args, err, r.Name)
				}
				refused[fmt.Sprint(r.Name, m)] = true
			case err != nil:
				t.Errorf("%v: %v", args, err)
			}
			if r.Modes&m == 0 {
				continue
			}
			for _, v := range outside(r) {
				args := append(slices.Clone(base), "-"+r.Name, v)
				if _, err := parseFlags(args); !namesFlag(err, r.Name) {
					t.Errorf("%v: error %v, want -%s %s refused by name", args, err, r.Name, v)
				}
			}
		}
	}
	for _, p := range ignoredBefore {
		if !refused[fmt.Sprint(p.flag, p.mode)] {
			t.Errorf("-%s is not refused in mode %b", p.flag, p.mode)
		}
	}
}

// TestREADMEKnobTable holds README's cmd/intentmatch knob table to the
// rows.
func TestREADMEKnobTable(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	const begin, end = "<!-- knobs: cmd/intentmatch -->\n", "<!-- /knobs -->"
	_, rest, _ := strings.Cut(string(raw), begin)
	got, _, _ := strings.Cut(rest, end)
	if want := new(options).table().Markdown(); got != want {
		t.Errorf("README.md's table between %q and %q is not the rows'; it should read:\n%s", begin, end, want)
	}
}

// corpusFile writes n generated posts as a JSON-lines corpus and
// returns its path and its bytes.
func corpusFile(t *testing.T, n int, seed int64) (string, []byte) {
	var b bytes.Buffer
	for _, p := range forum.Generate(forum.Config{Domain: forum.TechSupport, NumPosts: n, Seed: seed}) {
		line, _ := json.Marshal(map[string]string{"text": p.Text})
		b.Write(append(line, '\n'))
	}
	path := filepath.Join(t.TempDir(), "c.jsonl")
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, b.Bytes()
}

// TestEveryFlagChangesAnOutcome: a flag stays only if a value other
// than its default changes what the command does. One case a row, each
// against the default; a row without a case fails.
func TestEveryFlagChangesAnOutcome(t *testing.T) {
	corpus, _ := corpusFile(t, 30, 3)
	_, stdin := corpusFile(t, 25, 4)
	out := func(t *testing.T, args ...string) string {
		t.Helper()
		var b bytes.Buffer
		if err := run(args, bytes.NewReader(stdin), &b); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		return b.String()
	}
	base := out(t, "-corpus", corpus)
	snap := filepath.Join(t.TempDir(), "built.idx")
	cases := map[string]func(t *testing.T){
		"corpus": func(t *testing.T) {
			if a, b := out(t), base; !strings.Contains(a, "over 25 posts") || !strings.Contains(b, "over 30 posts") {
				t.Errorf("stdin and -corpus built:\n%s\n%s", a, b)
			}
		},
		"query": func(t *testing.T) {
			if got := out(t, "-corpus", corpus, "-query", "3,7"); !strings.Contains(got, "query 3:") || !strings.Contains(got, "query 7:") || strings.Contains(got, "query 0:") {
				t.Errorf("-query 3,7 answered:\n%s", got)
			}
		},
		"k": func(t *testing.T) {
			if a, b := strings.Count(base, ". post "), strings.Count(out(t, "-corpus", corpus, "-k", "2"), ". post "); a != 5 || b != 2 {
				t.Errorf("%d results by default, %d under -k 2", a, b)
			}
		},
		"method": func(t *testing.T) {
			if got := out(t, "-corpus", corpus, "-method", "fulltext"); !strings.HasPrefix(got, "built FullText") {
				t.Errorf("-method fulltext built:\n%s", got)
			}
		},
		"seed": func(t *testing.T) {
			if out(t, "-corpus", corpus, "-seed", "7") == base {
				t.Error("-seed 7 answers as -seed 1 does")
			}
		},
		"save": func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "saved.idx")
			if got := out(t, "-corpus", corpus, "-save", path); !strings.Contains(got, "saved pipeline to "+path) {
				t.Errorf("-save printed:\n%s", got)
			}
			if _, err := core.Load(path); err != nil {
				t.Error(err)
			}
		},
		"save-shards": func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sharded.idx")
			out(t, "-corpus", corpus, "-save", path, "-save-shards", "3")
			if p, err := core.Load(path); err != nil || p.Shards() != 3 {
				t.Errorf("-save-shards 3 saved %v shards (%v)", p.Shards(), err)
			}
		},
		"load": func(t *testing.T) {
			out(t, "-corpus", corpus, "-save", snap)
			got := out(t, "-load", snap)
			if !strings.HasPrefix(got, "loaded ") || !strings.Contains(got, "query 0:\n") {
				t.Errorf("-load answered:\n%s", got)
			}
		},
		"explain": func(t *testing.T) {
			if a, b := strings.Count(base, "cluster "), strings.Count(out(t, "-corpus", corpus, "-explain"), "     cluster "); a != 0 || b == 0 {
				t.Errorf("%d cluster lines by default, %d under -explain", a, b)
			}
		},
	}
	for _, r := range new(options).table().Rows {
		if cases[r.Name] == nil {
			t.Errorf("-%s has no case: a flag stays only with a test that shows it changing an outcome", r.Name)
		}
	}
	for name, c := range cases {
		t.Run(name, c)
	}
}

// TestExplainRefusesLDA: LDA's similarity is not an Eq 7–9 sum, so it
// has nothing to explain.
func TestExplainRefusesLDA(t *testing.T) {
	if err := run([]string{"-method", "lda", "-explain"}, strings.NewReader(""), new(bytes.Buffer)); err == nil || !strings.Contains(err.Error(), "-explain") {
		t.Errorf("-method lda -explain: %v", err)
	}
}
