package harness

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// textWriter is what every experiment's result renders through.
type textWriter interface{ WriteText(w io.Writer) }

// writeFunc adapts the experiments that only print (no cells) to textWriter.
type writeFunc func(w io.Writer)

func (f writeFunc) WriteText(w io.Writer) { f(w) }

// Experiment is one entry of the experiment table, the only list of
// experiment names: RunNamed, RunNamedCSV and ddpbench's help all read it.
type Experiment struct {
	Name  string
	InAll bool // "all" runs it: the paper reproduction, in table order
	CSV   bool // the result also renders tidy CSV rows (RunNamedCSV)
	run   func(o Options) (textWriter, error)
}

// capacity and scaling stay out of "all": their sweeps (36 open-loop cells;
// up-to-160-node sharded grids) are studies of their own rather than part
// of the paper reproduction.
var experiments = []Experiment{
	{"table1", true, false, func(o Options) (textWriter, error) { return Table1(o) }},
	{"table5", true, false, func(o Options) (textWriter, error) {
		return writeFunc(func(w io.Writer) { WriteTable5(w, o.Params) }), nil
	}},
	{"fig6", true, true, func(o Options) (textWriter, error) { return Figure6(o) }},
	{"fig7", true, true, func(o Options) (textWriter, error) { return Figure7(o) }},
	{"fig8", true, true, func(o Options) (textWriter, error) { return Figure8(o) }},
	{"fig9", true, true, func(o Options) (textWriter, error) { return Figure9(o) }},
	{"stats", true, false, func(o Options) (textWriter, error) { return PaperStats(o) }},
	{"table4", true, false, func(o Options) (textWriter, error) { return Table4(o) }},
	{"durability", true, true, func(o Options) (textWriter, error) { return DurabilityAudit(o) }},
	{"ablation", true, false, func(o Options) (textWriter, error) { return Ablations(o) }},
	{"recovery", true, false, func(o Options) (textWriter, error) { return RecoveryTimes(o) }},
	{"timelines", true, false, func(o Options) (textWriter, error) { return Timelines(o) }},
	{"hybrid", true, false, func(o Options) (textWriter, error) { return Hybrid(o) }},
	{"checker", true, false, func(o Options) (textWriter, error) { return Checker(o) }},
	{"capacity", false, true, func(o Options) (textWriter, error) { return Capacity(o) }},
	{"scaling", false, true, func(o Options) (textWriter, error) { return Scaling(o) }},
	{"models", true, false, func(Options) (textWriter, error) { return writeFunc(WriteModelReference), nil }},
}

// Experiments returns the experiment table in order.
func Experiments() []Experiment { return slices.Clone(experiments) }

// lookup finds a named experiment.
func lookup(name string) (Experiment, error) {
	for _, e := range experiments {
		if e.Name == name {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("unknown experiment %q", name)
}

// RunNamed executes the experiment with the given name, writing its text
// rendering to w. "all" runs every experiment marked InAll in table order.
func RunNamed(w io.Writer, name string, o Options) error {
	if name == "all" {
		for _, e := range experiments {
			if !e.InAll {
				continue
			}
			if err := RunNamed(w, e.Name, o); err != nil {
				return fmt.Errorf("%s: %w", e.Name, err)
			}
		}
		return nil
	}
	e, err := lookup(name)
	if err != nil {
		return err
	}
	o.Experiment = name // pprof cell labels read "<model>/<experiment>"
	r, err := e.run(o)
	if err != nil {
		return err
	}
	r.WriteText(w)
	return nil
}

// RunNamedCSV runs an experiment marked CSV and writes its tidy rows to w.
// Any other name fails before a cell runs.
func RunNamedCSV(w io.Writer, name string, o Options) error {
	e, err := lookup(name)
	if err != nil {
		return err
	}
	if !e.CSV {
		var csv []string
		for _, e := range experiments {
			if e.CSV {
				csv = append(csv, e.Name)
			}
		}
		return fmt.Errorf("experiment %q has no CSV form (use %s)", name, strings.Join(csv, "/"))
	}
	o.Experiment = name
	r, err := e.run(o)
	if err != nil {
		return err
	}
	return r.(interface{ WriteCSV(io.Writer) error }).WriteCSV(w)
}
