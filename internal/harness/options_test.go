package harness

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/ycsb"
)

// setNonZero stores an arbitrary non-zero value in v: the first field of a
// struct, a fresh element behind a pointer, 7 in a number, true, "x".
func setNonZero(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(7)
	case reflect.String:
		v.SetString("x")
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Struct:
		setNonZero(t, v.Field(0))
	default:
		t.Fatalf("no non-zero value for kind %s", v.Kind())
	}
}

// TestOptionsReachEveryCell sets every exported cluster.Config field on
// Options and checks each one arrives unchanged in the cell config — except
// the fields config sets per cell by design. A knob mirrored into a second
// Options field, or dropped on the way to the cell, fails here.
func TestOptionsReachEveryCell(t *testing.T) {
	perCell := map[string]bool{
		"Model":        true, // the cell's own model
		"Workload":     true, // the cell's own workload
		"ReplicaReads": true, // weak-visibility cells only
	}
	var o Options
	cfgType := reflect.TypeOf(o.Config)
	tmpl := reflect.ValueOf(&o.Config).Elem()
	for i := 0; i < cfgType.NumField(); i++ {
		if cfgType.Field(i).IsExported() {
			setNonZero(t, tmpl.Field(i))
			if tmpl.Field(i).IsZero() {
				t.Fatalf("%s: still zero after setNonZero", cfgType.Field(i).Name)
			}
		}
	}
	m := core.Model{C: core.Causal, P: core.Synchronous}
	got := reflect.ValueOf(o.config(m, ycsb.WorkloadB))
	for i := 0; i < cfgType.NumField(); i++ {
		f := cfgType.Field(i)
		if !f.IsExported() || perCell[f.Name] {
			continue
		}
		if !reflect.DeepEqual(got.Field(i).Interface(), tmpl.Field(i).Interface()) {
			t.Errorf("%s: Options carries %v, the cell got %v",
				f.Name, tmpl.Field(i).Interface(), got.Field(i).Interface())
		}
	}

	cfg := o.config(m, ycsb.WorkloadB)
	if cfg.Model != m || cfg.Workload != ycsb.WorkloadB || !cfg.ReplicaReads {
		t.Fatalf("per-cell fields: model %v workload %s replica reads %v",
			cfg.Model, cfg.Workload.Name, cfg.ReplicaReads)
	}
	if o.config(core.Baseline, ycsb.WorkloadA).ReplicaReads {
		t.Fatal("replica reads reached an invalidation-based cell")
	}
}

// TestSweepCSVRowOrder checks that a sensitivity sweep's CSV lists each
// point's models in sweepModels order, not in map iteration order.
func TestSweepCSVRowOrder(t *testing.T) {
	point := map[core.Model]*cluster.Result{}
	for _, m := range sweepModels() {
		point[m] = &cluster.Result{}
	}
	s := &SweepResult{Labels: []string{"p"}, Points: []map[core.Model]*cluster.Result{point}}
	var buf bytes.Buffer
	if err := s.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSpace(buf.String()), "\n")[1:]
	for i, m := range sweepModels() {
		if want := "p," + m.C.String() + "," + m.P.String() + ","; !strings.HasPrefix(rows[i], want) {
			t.Fatalf("row %d = %q, want prefix %q", i, rows[i], want)
		}
	}
}

// TestUnhonoredKnobFails checks that a knob no cell of an experiment can
// honor surfaces cluster.Config's field error instead of being dropped:
// Table 1 runs unsharded cells, and FwdBatch needs a sharded topology.
func TestUnhonoredKnobFails(t *testing.T) {
	o := quick()
	o.FwdBatch = 8
	err := RunNamed(&bytes.Buffer{}, "table1", o)
	if err == nil || !strings.Contains(err.Error(), "FwdBatch") {
		t.Fatalf("table1 with FwdBatch 8: err = %v, want the FwdBatch field error", err)
	}
}
