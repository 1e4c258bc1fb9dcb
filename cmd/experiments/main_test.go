package main

import (
	"strings"
	"testing"
)

// TestRunRefusals: a negative size or count is refused by flag name
// rather than read as "default", and so is a bad -sizes entry.
func TestRunRefusals(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-scale", "-5"}, "experiments: -scale -5 is negative"},
		{[]string{"-queries", "-3"}, "experiments: -queries -3 is negative"},
		{[]string{"-annotators", "-1"}, "experiments: -annotators -1 is negative"},
		{[]string{"-segposts", "-1"}, "experiments: -segposts -1 is negative"},
		{[]string{"-table6", "-1"}, "experiments: -table6 -1 is negative"},
		{[]string{"-sizes", "10,x"}, `experiments: bad -sizes value "x"`},
		{[]string{"-sizes", "0"}, "experiments: collection size 0 is below 1"},
	} {
		var out strings.Builder
		err := run(append([]string{"-exp", "fig7", "-obs=false"}, c.args...), &out)
		if err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("%v: error %v, want one that begins %q", c.args, err, c.want)
		}
		if out.Len() > 0 {
			t.Errorf("%v: printed %q before refusing", c.args, out.String())
		}
	}
}

func TestRunFig7(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-exp", "fig7", "-obs=false"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Fig 7: intention categories per domain") {
		t.Errorf("fig7 report without its header:\n%s", out.String())
	}
}
