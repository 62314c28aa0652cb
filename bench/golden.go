package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// goldenSeeds are the seeds whose simulated results are pinned. Any other
// seed is checked for rep-to-rep and child-to-child identity only.
var goldenSeeds = []uint64{1, 2}

// golden pins what one workload simulates at one seed. A simulator-speed
// change must leave all of it identical.
type golden struct {
	SimMops     float64                      `json:"sim_mops"`
	SimP99Ns    int64                        `json:"sim_p99_ns"`
	PaperErrPct float64                      `json:"paper_err_pct,omitempty"`
	Cells       map[string]map[string]string `json:"cells"` // cell -> field group -> digest
}

// The goldens are compiled in, so a run needs no path to them;
// -update-golden rewrites the files and the next build picks them up.
//
//go:embed golden/*.json
var goldenFS embed.FS

// loadGolden returns the pins of a workload at a seed, or nil if that seed
// is not pinned.
func loadGolden(workload string, seed uint64) (*golden, error) {
	data, err := goldenFS.ReadFile("golden/" + workload + ".json")
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var bySeed map[string]*golden
	if err := json.Unmarshal(data, &bySeed); err != nil {
		return nil, fmt.Errorf("golden/%s.json: %w", workload, err)
	}
	return bySeed[strconv.FormatUint(seed, 10)], nil
}

func goldenOf(c childResult) *golden {
	return &golden{SimMops: simMops(c), SimP99Ns: c.SimP99Ns, PaperErrPct: c.PaperErrPct, Cells: c.Digests}
}

// diffGolden lists what a child simulated differently from the pins, naming
// each cell and the field groups that moved.
func diffGolden(c childResult, want *golden) []string {
	got := goldenOf(c)
	var diffs []string
	if got.SimMops != want.SimMops {
		diffs = append(diffs, fmt.Sprintf("sim_mops %v, golden %v", got.SimMops, want.SimMops))
	}
	if got.SimP99Ns != want.SimP99Ns {
		diffs = append(diffs, fmt.Sprintf("sim_p99_ns %d, golden %d", got.SimP99Ns, want.SimP99Ns))
	}
	if got.PaperErrPct != want.PaperErrPct {
		diffs = append(diffs, fmt.Sprintf("paper_err_pct %v, golden %v", got.PaperErrPct, want.PaperErrPct))
	}
	names := make([]string, 0, len(want.Cells))
	for name := range want.Cells {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		d, ok := got.Cells[name]
		if !ok {
			diffs = append(diffs, fmt.Sprintf("cell %s: pinned but not run", name))
		} else if moved := movedGroups(d, want.Cells[name]); len(moved) > 0 {
			diffs = append(diffs, fmt.Sprintf("cell %s: %s differ from golden", name, strings.Join(moved, ", ")))
		}
	}
	for name := range got.Cells {
		if _, ok := want.Cells[name]; !ok {
			diffs = append(diffs, fmt.Sprintf("cell %s: run but not pinned; rerun -update-golden", name))
		}
	}
	return diffs
}

// writeGolden stores the per-seed pins of one workload under dir/golden.
func writeGolden(dir, workload string, bySeed map[string]*golden) error {
	data, err := json.MarshalIndent(bySeed, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "golden", workload+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
