// Package knob declares a command's flags once, as the rows of one
// table: name, default, help, the values it accepts and the modes of
// the command that read it. The flag set is registered from the rows;
// a flag set outside its range, in a mode that does not read it, or
// without the flag it works beside is refused by name; and the README's
// knob table is rendered from them. No description of a flag can drift
// from another, and no flag is silently ignored.
package knob

import (
	"flag"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Modes is a set of a command's modes: bit i stands for Table.Modes[i].
type Modes uint

// Row is one flag.
type Row struct {
	Name string
	// Value is where the parsed flag goes: a *string, *int, *int64,
	// *bool or *time.Duration. Default is of its element type.
	Value   any
	Default any
	Help    string
	// Range is the set of values the flag accepts; nil accepts any.
	Range *Range
	// Modes are the modes that read the flag.
	Modes Modes
	// Needs names a flag this one is read beside only: set without it
	// (or with it at its default), this flag is refused.
	Needs string
}

// Range is the set of values a flag accepts: Min ≤ v ≤ Max for a
// numeric flag (a duration in nanoseconds), a member of OneOf for a
// string flag.
type Range struct {
	Min, Max int64
	OneOf    []string
}

// AtLeast accepts every value from min up.
func AtLeast(min int64) *Range { return &Range{Min: min, Max: math.MaxInt64} }

// Between accepts min through max.
func Between(min, max int64) *Range { return &Range{Min: min, Max: max} }

// OneOf accepts the values listed.
func OneOf(values ...string) *Range { return &Range{OneOf: values} }

// Table is one command's flags and the names of its modes, as errors
// and the README say them.
type Table struct {
	Modes []string
	Rows  []Row
}

// Parse parses a command's args into the rows' values and refuses, by
// name, the first flag set outside its range, and then the first that
// the mode the parsed flags choose does not read or that is set without
// the flag it needs. Every refusal begins with the flag's name. The
// usage message (-h, or a flag the rows do not define) is the rows'
// table.
func (t *Table) Parse(name string, args []string, mode func() Modes) error {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.Usage = func() { fmt.Fprintf(fs.Output(), "Usage of %s:\n\n%s", name, t.Markdown()) }
	t.register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	return t.check(fs, mode())
}

// register defines every row on fs, with its default and help.
func (t *Table) register(fs *flag.FlagSet) {
	for _, r := range t.Rows {
		switch p := r.Value.(type) {
		case *string:
			fs.StringVar(p, r.Name, r.Default.(string), r.Help)
		case *int:
			fs.IntVar(p, r.Name, r.Default.(int), r.Help)
		case *int64:
			fs.Int64Var(p, r.Name, r.Default.(int64), r.Help)
		case *bool:
			fs.BoolVar(p, r.Name, r.Default.(bool), r.Help)
		case *time.Duration:
			fs.DurationVar(p, r.Name, r.Default.(time.Duration), r.Help)
		default:
			panic(fmt.Sprintf("knob: -%s holds a %T", r.Name, r.Value))
		}
	}
}

// check is Parse's refusal of the flags set on fs in mode (one mode's
// bit).
func (t *Table) check(fs *flag.FlagSet, mode Modes) error {
	var set []*Row
	fs.Visit(func(f *flag.Flag) {
		set = append(set, t.row(f.Name))
	})
	for _, r := range set {
		if err := r.checkRange(); err != nil {
			return err
		}
	}
	for _, r := range set {
		if r.Modes&mode == 0 {
			return fmt.Errorf("-%s is not read in %s mode (read in: %s)", r.Name, t.names(mode), t.names(r.Modes))
		}
		if r.Needs != "" {
			if f := fs.Lookup(r.Needs); f.Value.String() == f.DefValue {
				return fmt.Errorf("-%s is read only beside -%s", r.Name, r.Needs)
			}
		}
	}
	return nil
}

// row is the row named name.
func (t *Table) row(name string) *Row {
	i := slices.IndexFunc(t.Rows, func(r Row) bool { return r.Name == name })
	return &t.Rows[i]
}

// checkRange refuses the flag's value when its range does not hold it.
func (r *Row) checkRange() error {
	if r.Range == nil {
		return nil
	}
	if s, ok := r.Value.(*string); ok {
		if !slices.Contains(r.Range.OneOf, *s) {
			return fmt.Errorf("-%s %q is none of %s", r.Name, *s, r.rangeText())
		}
		return nil
	}
	var v int64
	switch p := r.Value.(type) {
	case *int:
		v = int64(*p)
	case *int64:
		v = *p
	case *time.Duration:
		v = int64(*p)
	}
	if v < r.Range.Min || v > r.Range.Max {
		return fmt.Errorf("-%s %s is outside its range %s", r.Name, r.format(v), r.rangeText())
	}
	return nil
}

// format prints a numeric value as the flag's type does.
func (r *Row) format(v int64) string {
	if _, ok := r.Value.(*time.Duration); ok {
		return time.Duration(v).String()
	}
	return strconv.FormatInt(v, 10)
}

// rangeText is the range as errors and the README print it.
func (r *Row) rangeText() string {
	switch {
	case r.Range == nil:
		return ""
	case r.Range.OneOf != nil:
		vals := make([]string, len(r.Range.OneOf))
		for i, v := range r.Range.OneOf {
			vals[i] = strconv.Quote(v)
		}
		return strings.Join(vals, ", ")
	case r.Range.Max == math.MaxInt64:
		return "≥ " + r.format(r.Range.Min)
	}
	return r.format(r.Range.Min) + " to " + r.format(r.Range.Max)
}
