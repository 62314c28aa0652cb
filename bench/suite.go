package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
)

// suiteResult is every metric of every workload: workload -> metric -> value.
type suiteResult map[string]map[string]float64

// suite runs all four workloads, each in both modes, and writes the numbers
// with the host fingerprint to out/results.json.
func (d driver) suite() (suiteResult, error) {
	res := suiteResult{}
	var host hostInfo
	correct := true
	for _, w := range workloads(fullSize) {
		res[w.name] = map[string]float64{}
		for _, trace := range []bool{false, true} {
			out, err := d.run(w, trace)
			if err != nil {
				return nil, err
			}
			host = out.host
			correct = correct && out.correct()
			for name, v := range out.metrics {
				res[w.name][name] = v
			}
		}
	}
	err := d.writeOut("results.json", struct {
		Host      hostInfo    `json:"host"`
		Seed      uint64      `json:"seed"`
		Workloads suiteResult `json:"workloads"`
	}{host, d.seed, res})
	if err != nil {
		return nil, err
	}
	if !correct {
		return nil, errIncorrect
	}
	return res, nil
}

func (d driver) writeOut(name string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(d.dir, "out", name)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// selfcheck runs the suite twice back to back on the same code. Host-time
// end-to-end metrics must agree within their bounds; every exact metric,
// end-to-end or per-layer, must be identical.
func (d driver) selfcheck() error {
	var runs [2]suiteResult
	for i := range runs {
		res, err := d.suite()
		if err != nil {
			return err
		}
		runs[i] = res
	}
	type pair struct {
		Workload string  `json:"workload"`
		Metric   string  `json:"metric"`
		First    float64 `json:"first"`
		Second   float64 `json:"second"`
		RelDiff  float64 `json:"rel_diff"`
		Bound    float64 `json:"bound"`
		OK       bool    `json:"ok"`
	}
	var pairs []pair
	ok := true
	for _, w := range workloads(fullSize) {
		for _, def := range slices.Concat(endToEnd, perLayer()) {
			a, b := runs[0][w.name][def.name], runs[1][w.name][def.name]
			p := pair{Workload: w.name, Metric: def.name, First: a, Second: b, RelDiff: relDiff(a, b), Bound: def.bound, OK: true}
			switch {
			case def.exact:
				p.Bound = 0
				p.OK = a == b
			case def.bound > 0:
				p.OK = p.RelDiff <= def.bound
			}
			if def.bound > 0 || !p.OK {
				verdict := "ok"
				if !p.OK {
					verdict = "OUTSIDE"
				}
				fmt.Printf("selfcheck %-16s %-20s %14.6f %14.6f  diff %6.2f%%  bound %5.1f%%  %s\n",
					w.name, def.name, a, b, 100*p.RelDiff, 100*p.Bound, verdict)
			}
			ok = ok && p.OK
			pairs = append(pairs, p)
		}
	}
	if err := d.writeOut("selfcheck.json", pairs); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("selfcheck: two runs of the same code disagree")
	}
	return nil
}

// relDiff is how far b is from a as a share of a; of b when a is 0, as a
// profile row with no samples in the first run is, so that the share stays
// finite.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	den := a
	if den == 0 {
		den = b
	}
	return math.Abs((b - a) / den)
}

// updateGolden simulates every workload once at each pinned seed and
// rewrites its golden file.
func (d driver) updateGolden() error {
	for _, w := range workloads(fullSize) {
		bySeed := map[string]*golden{}
		for _, seed := range goldenSeeds {
			c, err := driver{seed: seed, dir: d.dir, cal: d.cal}.spawn(w, 0, false)
			if err != nil {
				return err
			}
			if c.Failed > 0 {
				return fmt.Errorf("%s at seed %d: %v", w.name, seed, c.Failures)
			}
			bySeed[strconv.FormatUint(seed, 10)] = goldenOf(c)
		}
		if err := writeGolden(d.dir, w.name, bySeed); err != nil {
			return err
		}
		fmt.Printf("pinned %s at seeds %v\n", w.name, goldenSeeds)
	}
	return nil
}

// writeDescription prints BENCHMARK.json: the builder's contract generated
// from the same tables the benchmark reports from.
func writeDescription(out io.Writer) error {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	desc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads(fullSize) {
		desc.Workloads = append(desc.Workloads, wl{w.name, w.why})
	}
	for _, m := range endToEnd {
		desc.EndToEnd = append(desc.EndToEnd, e2e{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range perLayer() {
		desc.PerLayer = append(desc.PerLayer, layer{m.name, m.unit, m.better})
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(desc)
}
