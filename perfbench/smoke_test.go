package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

// TestSmoke runs every workload end to end at smoke sizes against votmd
// built from this tree, traced and untraced, and checks each prints a
// complete, correct, failure-free result.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds votmd and runs every workload")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "votmd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/votmd")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build votmd: %v\n%s", err, out)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := &options{workload: w.name, seed: 1, seconds: 1, trace: trace, smoke: true,
				root: t.TempDir(), votmd: bin}
			o.defaults()
			out, err := w.run(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			defs, vals := endToEnd, out.e2e
			if trace {
				defs, vals = perLayer, out.layer
			}
			if _, err := vals.finish(defs); err != nil {
				t.Errorf("%s trace=%v: %v", w.name, trace, err)
			}
			if !out.correct || out.failed != 0 || out.attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d",
					w.name, trace, out.correct, out.failed, out.attempted)
			}
		}
	}
}

// TestManifestMatchesTables: the committed BENCHMARK.json is the one the
// tables in this package generate.
func TestManifestMatchesTables(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCHMARK.json")
	if err := writeManifest(path); err != nil {
		t.Fatal(err)
	}
	var want, got any
	for p, dst := range map[string]*any{path: &want, "../BENCHMARK.json": &got} {
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, dst); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("BENCHMARK.json is stale: regenerate it with --write-benchmark-json")
	}
}
