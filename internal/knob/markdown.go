package knob

import (
	"fmt"
	"strings"
)

// names lists the names of the modes in m, or "every mode" and the
// one it leaves out when that is shorter.
func (t *Table) names(m Modes) string {
	var in, out []string
	for i, name := range t.Modes {
		if m&(1<<i) != 0 {
			in = append(in, name)
		} else {
			out = append(out, name)
		}
	}
	switch {
	case len(out) == 0:
		return "every mode"
	case len(out) == 1 && len(in) > 1:
		return "every mode but " + out[0]
	}
	return strings.Join(in, ", ")
}

// Markdown renders the rows as the README's knob table, one line a
// flag, in declaration order.
func (t *Table) Markdown() string {
	var b strings.Builder
	b.WriteString("| Flag | Default | Accepts | Read in | Meaning |\n|---|---|---|---|---|\n")
	for _, r := range t.Rows {
		def := fmt.Sprint(r.Default)
		if def != "" {
			def = "`" + def + "`"
		}
		modes := t.names(r.Modes)
		if r.Needs != "" {
			modes += ", beside `-" + r.Needs + "`"
		}
		fmt.Fprintf(&b, "| `-%s` | %s | %s | %s | %s |\n", r.Name, def, r.rangeText(), modes,
			strings.ReplaceAll(r.Help, "|", `\|`))
	}
	return b.String()
}
