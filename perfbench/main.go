// Command perfbench is votm's benchmark: it runs one named workload for a
// fixed time from a seed, checks the outputs, and prints every metric by
// name with its unit. Build and run it through run.sh from the repository
// root (run.sh builds votmd from ./cmd/votmd first):
//
//	bash perfbench/run.sh --workload kv-read-skew --seed 1 --seconds 10 --trace 0
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; with --trace 0 the metrics are the end-to-end ones,
// with --trace 1 the per-layer ones. The lines before it are the
// human-readable report, including the host shape. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 30

// holdoutSeed is the seed kept out of tuning, for checking a claimed gain on
// inputs the change was not written against (--seed holdout).
const holdoutSeed = 7_777_777

// workload is one named input set. Gated workloads are listed in
// BENCHMARK.json, so a change that slows them past a bound is rejected; the
// others run by name only (see README.md for why).
type workload struct {
	name, why string
	gated     bool
	run       func(o *options) (*outcome, error)
}

var workloads = []workload{
	{"kv-read-skew", "votmd defaults, durability off, 90% GET/10% PUT over Zipf(1.1) keys: wire, dispatch/queue/group and a hot view's STM/RAC conflicts; no WAL or 2PC", true, runReadSkew},
	{"eigen-hotcold", "the paper's two-view hot/cold Eigenbench (OrecEagerRedo, multi-view, adaptive RAC) in process: STM, core retry and RAC only, no network, queue or WAL", true, runEigen},
	{"kv-durable-txn", "votmd -durability group: 40% PUT, 30% same-shard and 30% cross-shard 2-key transfers, then SIGKILL and restart: WAL fsync, group commit, 2PC, recovery", false, runDurable},
}

// options are one run's settings. The sizes shrink in smoke mode.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool
	root     string
	votmd    string

	conns, genProcs, satProcs, srvProcs int
	setups, restarts                    int
	keys, accounts, putKeys             int
	eigenLoops, walSamples              int
}

// rate scales a workload's paced rate down in smoke mode.
func (o *options) rate(r float64) float64 {
	if o.smoke {
		return r / 20
	}
	return r
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		o        options
		seed     string
		traceN   int
		manifest string
	)
	flag.StringVar(&o.workload, "workload", "", "workload name: kv-read-skew | kv-durable-txn | eigen-hotcold")
	flag.StringVar(&seed, "seed", "1", `workload seed (an integer, or "holdout" for the seed kept out of tuning)`)
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "measured seconds of the run")
	flag.IntVar(&traceN, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny sizes and one set-up, for an end-to-end check of every code path")
	flag.StringVar(&o.root, "root", ".", "repository root (the build and work directory .bench_build lives here)")
	flag.StringVar(&o.votmd, "votmd", "", "votmd binary built from this tree (run.sh passes it)")
	flag.StringVar(&manifest, "write-benchmark-json", "", "write the BENCHMARK.json manifest to this path and exit")
	flag.Parse()

	if manifest != "" {
		return writeManifest(manifest)
	}
	switch seed {
	case "holdout":
		o.seed = holdoutSeed
	default:
		s, err := strconv.ParseInt(seed, 10, 64)
		if err != nil {
			return fmt.Errorf("bad --seed %q", seed)
		}
		o.seed = s
	}
	if traceN != 0 && traceN != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	o.trace = traceN == 1
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == o.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown --workload %q", o.workload)
	}
	if w.name != "eigen-hotcold" && o.votmd == "" {
		return fmt.Errorf("--votmd is required for %s (use run.sh)", w.name)
	}
	o.defaults()

	out, err := w.run(&o)
	if dir, derr := runDir(o.root); derr == nil {
		_ = os.RemoveAll(dir)
	}
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	return out.print(&o)
}

func (o *options) defaults() {
	n := runtime.NumCPU()
	o.conns = min(2, n)
	o.genProcs = min(2, n)
	o.satProcs = 1
	o.srvProcs = n
	runtime.GOMAXPROCS(o.genProcs)
	o.setups, o.restarts = 3, 11
	o.keys, o.accounts, o.putKeys = 1<<18, 1<<16, 1<<16
	o.eigenLoops = 20_000
	o.walSamples = 100
	if o.smoke {
		o.setups, o.restarts = 1, 1
		o.keys, o.accounts, o.putKeys = 1<<12, 1<<10, 1<<10
		o.eigenLoops = 500
		o.walSamples = 5
	}
}

// outcome is a finished run.
type outcome struct {
	correct           bool
	attempted, failed int64
	e2e, layer        values
	host              hostShape
}

func newOutcome(o *options, srvFlags []string) *outcome {
	return &outcome{correct: true, host: hostOf(o, srvFlags)}
}

// addTally books a traffic tally: BUSY, error statuses and wrong answers
// count as failed; a wrong answer also makes the run incorrect.
func (out *outcome) addTally(t *tally) {
	out.attempted += t.attempted.Load()
	out.failed += t.failed()
	if t.wrong.Load() > 0 {
		out.correct = false
		fmt.Printf("check FAILED: %d wrong answers, first: %v\n", t.wrong.Load(), t.first)
	} else if t.first != nil {
		fmt.Printf("first error status: %v\n", t.first)
	}
	fmt.Printf("requests: %d attempted, %d ok, %d busy, %d error status, %d wrong\n",
		t.attempted.Load(), t.ok.Load(), t.busy.Load(), t.errs.Load(), t.wrong.Load())
}

// fail records a failed output check.
func (out *outcome) fail(err error) {
	out.correct = false
	fmt.Printf("check FAILED: %v\n", err)
}

func (out *outcome) pass(what string) {
	fmt.Printf("check ok: %s\n", what)
}

func (out *outcome) print(o *options) error {
	defs, vals := endToEnd, out.e2e
	if o.trace {
		defs, vals = perLayer, out.layer
	}
	ms, err := vals.finish(defs)
	if err != nil {
		return err
	}
	hb, err := json.Marshal(out.host)
	if err != nil {
		return err
	}
	fmt.Printf("host: %s\n", hb)
	fmt.Printf("err_share: %.6f (%d failed of %d attempted)\n",
		ratio(float64(out.failed), float64(out.attempted)), out.failed, out.attempted)
	for _, d := range defs {
		fmt.Printf("%-32s %14.4f %s\n", d.Name, ms[d.Name].Value, d.Unit)
	}
	b, err := json.Marshal(report{Correct: out.correct, Attempted: max(out.attempted, 1), Failed: out.failed, Metrics: ms})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// hostShape is recorded with every result.
type hostShape struct {
	Nproc      int      `json:"nproc"`
	GenProcs   int      `json:"gomaxprocs_generator"`
	SatProcs   int      `json:"gomaxprocs_generator_closed_loop,omitempty"`
	SrvProcs   int      `json:"gomaxprocs_server"`
	SrvNice    int      `json:"nice_server,omitempty"`
	Conns      int      `json:"connections"`
	CPU        string   `json:"cpu_model"`
	Go         string   `json:"go"`
	Commit     string   `json:"commit"`
	SrcDigest  string   `json:"source_sha256"`
	Seed       int64    `json:"seed"`
	Workload   string   `json:"workload"`
	Seconds    int      `json:"seconds"`
	Trace      bool     `json:"trace"`
	Smoke      bool     `json:"smoke,omitempty"`
	VotmdFlags []string `json:"votmd_flags,omitempty"`
	WALFS      string   `json:"wal_fs,omitempty"`
	WALFlush   string   `json:"wal_flush,omitempty"`
}

func hostOf(o *options, srvFlags []string) hostShape {
	h := hostShape{
		Nproc: runtime.NumCPU(), GenProcs: o.genProcs, SatProcs: o.satProcs, SrvProcs: o.srvProcs,
		Conns: o.conns, CPU: cpuModel(), Go: runtime.Version(),
		Commit: gitCommit(o.root), SrcDigest: srcDigest(o.root),
		Seed: o.seed, Workload: o.workload, Seconds: o.seconds, Trace: o.trace, Smoke: o.smoke,
	}
	// Drop the per-run parts (listen address, data directory) so the
	// recorded flags compare across runs.
	for i := 0; i < len(srvFlags); i++ {
		switch srvFlags[i] {
		case "-addr", "-data-dir":
			i++
			continue
		}
		h.VotmdFlags = append(h.VotmdFlags, srvFlags[i])
	}
	if o.workload == "eigen-hotcold" {
		h.Conns, h.SrvProcs, h.SatProcs = 0, 0, 0
	} else {
		h.SrvNice = srvNice
	}
	return h
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func gitCommit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return "unknown (not a git checkout)"
	}
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// srcDigest hashes the tree's Go sources and module files, identifying the
// code under test where no git metadata exists.
func srcDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, p)
		fmt.Fprintf(h, "%s %d\n", rel, len(b))
		h.Write(b)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
		0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs", 0x65735546: "fuse",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", st.Type)
}
