package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// metricDef names one reported figure. Bound is the share of the parent's
// median by which an end-to-end metric may worsen before a change counts as
// a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the figures a user of votmd (or of the VOTM runtime, on
// eigen-hotcold) sees. Every workload reports every one of them; the
// per-workload meaning is in README.md.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_s", "1/s", "higher", 0.20},
	{"p50_us", "us", "lower", 0.25},
	{"p99_us", "us", "lower", 0.25},
	{"server_cpu_us_per_op", "us", "lower", 0.20},
	{"restart_s", "s", "lower", 0.25},
}

// perView are the core/stm/rac figures reported for all views together and
// for the hot view (view1) and the rest (view2) separately.
var perView = []metricDef{
	{"core.abort_share", "share", "lower", 0},
	{"core.exec_ns_per_op", "ns", "lower", 0},
	{"core.escalations", "count", "lower", 0},
	{"stm.commit_ns_per_tx", "ns", "lower", 0},
	{"rac.delta", "ratio", "lower", 0},
	{"rac.quota_moves", "count", "lower", 0},
}

// perLayer are the traced run's figures, named by module.
var perLayer = func() []metricDef {
	ms := []metricDef{
		{"wire.encode_ns", "ns", "lower", 0},
		{"wire.decode_ns", "ns", "lower", 0},
		{"wire.parse_ns", "ns", "lower", 0},
		{"server.group.size", "ops", "higher", 0},
		{"server.queue.hw", "count", "lower", 0},
		{"server.queue.hw_win", "count", "lower", 0},
		{"server.admission.rejects", "count", "lower", 0},
		{"xshard.groups_per_kop", "count", "lower", 0},
		{"xshard.prepares_per_group", "count", "lower", 0},
		{"xshard.prepare_aborts", "count", "lower", 0},
		{"recovery.replayed_records", "count", "lower", 0},
	}
	for _, suffix := range []string{"", ".view1", ".view2"} {
		for _, m := range perView {
			m.Name += suffix
			ms = append(ms, m)
		}
	}
	return append(ms,
		metricDef{"stmds.get_ns", "ns", "lower", 0},
		metricDef{"stmds.put_ns", "ns", "lower", 0},
		metricDef{"wal.appends_per_kop", "count", "lower", 0},
		metricDef{"wal.fsyncs_per_kop", "count", "lower", 0},
		metricDef{"wal.fsync_share", "share", "lower", 0},
		metricDef{"wal.bytes_per_user_byte", "ratio", "lower", 0},
		metricDef{"wal.append_us", "us", "lower", 0},
		metricDef{"wal.sync_us", "us", "lower", 0},
		metricDef{"trace.overhead_share", "share", "lower", 0},
	)
}()

func unitOf(defs []metricDef, name string) (string, bool) {
	for _, d := range defs {
		if d.Name == name {
			return d.Unit, true
		}
	}
	return "", false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the run's last stdout line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// values collects a run's figures by name; finish checks it against the
// metric table so a run can never print a partial or misnamed set.
type values map[string]float64

func (v values) finish(defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		x, ok := v[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s not measured", d.Name)
		}
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil, fmt.Errorf("metric %s is %v", d.Name, x)
		}
		out[d.Name] = metric{Value: x, Unit: d.Unit}
	}
	for name := range v {
		if _, ok := unitOf(defs, name); !ok {
			return nil, fmt.Errorf("metric %s is not in the table", name)
		}
	}
	return out, nil
}

// ratio is a/b, 0 when b is 0 (a layer that did no work on a workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDoc `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadDoc struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// writeManifest writes BENCHMARK.json from the tables in this package.
func writeManifest(path string) error {
	var docs []workloadDoc
	for _, w := range workloads {
		if w.gated {
			docs = append(docs, workloadDoc{w.name, w.why})
		}
	}
	layers := make([]metricDef, len(perLayer))
	for i, m := range perLayer {
		layers[i] = metricDef{Name: m.Name, Unit: m.Unit, Better: m.Better}
	}
	b, err := json.MarshalIndent(manifest{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: defaultSeconds,
		Workloads:  docs,
		EndToEnd:   endToEnd,
		PerLayer:   layers,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
