package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync/atomic"
	"syscall"
	"time"

	"votm"
	"votm/internal/core"
	"votm/internal/eigenbench"
	"votm/wire"
)

// eigen-hotcold: the paper's two-view hot/cold Eigenbench (Table II
// parameters scaled to nproc threads), OrecEagerRedo, one view per object
// with adaptive RAC, yield points off, run in process. A run repeats the
// fixed work (2 views × threads × loops transactions) until its time is
// used; each repetition's makespan is one latency sample and its
// commits/makespan one throughput sample.

// processCPU is the benchmark process's user+system CPU time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// eigenRep is one repetition's figures.
type eigenRep struct {
	res      eigenbench.Result
	setup    time.Duration // Run call to views ready
	cpu      time.Duration
	deltas   [2][]float64 // windowed δ(Q) samples per view (traced)
	traced   bool
	makespan time.Duration
}

func eigenOnce(threads, loops int, seed int64, traced bool) (eigenRep, error) {
	// Every repetition starts from a collected heap, so the garbage an
	// earlier one left is not charged to this one.
	runtime.GC()
	p := eigenbench.Scaled(threads, loops)
	p.Seed = seed
	var rep eigenRep
	var samplers []*votm.DeltaSampler
	t0 := time.Now()
	cfg := eigenbench.RunConfig{
		Engine: core.OrecEagerRedo,
		Mode:   eigenbench.MultiView,
		Yield:  eigenbench.YieldOff,
		OnViews: func(views []*core.View) {
			rep.setup = time.Since(t0)
			if traced {
				for _, v := range views {
					samplers = append(samplers, votm.StartDeltaSampler(v, 10*time.Millisecond))
				}
			}
		},
	}
	cpu0 := processCPU()
	res, err := eigenbench.Run(cfg, p)
	rep.cpu = processCPU() - cpu0
	for i, s := range samplers {
		for _, x := range s.Stop() {
			if !math.IsNaN(x.Delta) && i < 2 {
				rep.deltas[i] = append(rep.deltas[i], x.Delta)
			}
		}
	}
	if err != nil {
		return rep, err
	}
	rep.res, rep.traced, rep.makespan = res, traced, res.Elapsed
	return rep, nil
}

func runEigen(o *options) (*outcome, error) {
	threads := runtime.NumCPU()
	loops := o.eigenLoops
	want := int64(2 * threads * loops)
	out := newOutcome(o, nil)
	fmt.Printf("eigen-hotcold: %s, %d threads, %d loops per thread per view\n",
		eigenbench.Describe(eigenbench.RunConfig{Engine: core.OrecEagerRedo, Mode: eigenbench.MultiView, Yield: eigenbench.YieldOff}),
		threads, loops)

	// Warm-up repetition: heap growth and first-touch page faults.
	if _, err := eigenOnce(threads, loops/4+1, o.seed*1000-1, false); err != nil {
		return nil, err
	}
	var reps []eigenRep
	var livelocks int64
	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	for i := 0; len(reps) < 3 || time.Now().Before(deadline); i++ {
		rep, err := eigenOnce(threads, loops, o.seed*1000+int64(i), o.trace && i%2 == 1)
		if err != nil {
			return nil, err
		}
		if rep.res.Livelock {
			livelocks++
			out.fail(fmt.Errorf("repetition %d livelocked: %s", i, rep.res.Reason))
			continue
		}
		if got := rep.res.TotalCommits(); got != want {
			out.fail(fmt.Errorf("repetition %d committed %d transactions, want %d", i, got, want))
		}
		reps = append(reps, rep)
		if len(reps) > 1000 {
			break
		}
	}
	out.attempted = int64(len(reps)) + livelocks
	out.failed = livelocks
	if len(reps) == 0 {
		return nil, fmt.Errorf("every repetition livelocked")
	}
	if out.correct {
		out.pass(fmt.Sprintf("no livelock; every repetition committed 2 x %d threads x %d loops = %d", threads, loops, want))
	}

	var ops, opsTraced, spans, setups, cpus []float64
	for _, r := range reps {
		commits := float64(r.res.TotalCommits())
		if r.traced {
			opsTraced = append(opsTraced, commits/r.makespan.Seconds())
			continue
		}
		ops = append(ops, commits/r.makespan.Seconds())
		spans = append(spans, float64(r.makespan.Microseconds()))
		setups = append(setups, r.setup.Seconds())
		cpus = append(cpus, float64(r.cpu.Microseconds())/commits)
	}
	sorted := append([]float64(nil), spans...)
	sort.Float64s(sorted)

	// Cold start to first completed work: a fresh runtime and views running
	// one transaction per thread per view.
	var cold []float64
	for i := 0; i < 3*o.restarts; i++ {
		t0 := time.Now()
		r, err := eigenOnce(threads, 1, o.seed*1000+int64(10_000+i), false)
		if err != nil {
			return nil, err
		}
		if r.res.Livelock {
			return nil, fmt.Errorf("one-loop run livelocked")
		}
		cold = append(cold, time.Since(t0).Seconds())
		setups = append(setups, r.setup.Seconds())
	}
	fmt.Printf("repetitions: %d untraced, %d traced; makespan us %s\n", len(ops), len(opsTraced), fmtList(spans, "%.0f"))
	fmt.Printf("makespan: median %.0f us, p99 %.0f us over %d repetitions; cold start median %.6f s over %d\n",
		percentile(sorted, 0.5), percentile(sorted, 0.99), len(sorted), median(cold), len(cold))

	out.e2e = values{
		"setup_s":              median(setups),
		"ops_s":                median(ops),
		"p50_us":               percentile(sorted, 0.5),
		"p99_us":               percentile(sorted, 0.99),
		"server_cpu_us_per_op": median(cpus),
		"restart_s":            median(cold),
	}
	if o.trace {
		if err := eigenLayers(o, out, reps, median(ops), median(opsTraced)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// eigenLayers fills the per-layer metrics of a traced eigen run: core, stm
// and rac per view from the traced repetitions, the layers eigen does not
// touch from the same outside timings the kv workloads use (so every
// workload reports every layer), and the server's STATS figures as zero —
// there is no server on this path.
func eigenLayers(o *options, out *outcome, reps []eigenRep, ops, opsTraced float64) error {
	v := values{}
	var all viewFigures
	var deltaAll []float64
	for view := 0; view < 2; view++ {
		var f viewFigures
		var deltas []float64
		for _, r := range reps {
			if !r.traced || view >= len(r.res.Views) {
				continue
			}
			s := r.res.Views[view]
			f.commits += float64(s.Commits)
			f.aborts += float64(s.Aborts)
			f.escalations += float64(s.Escalations)
			f.successNs += float64(s.SuccessNs)
			f.abortNs += float64(s.AbortNs)
			f.quotaMoves += float64(s.QuotaMoves)
			deltas = append(deltas, r.deltas[view]...)
		}
		f.ops = f.commits
		f.delta = median(deltas)
		deltaAll = append(deltaAll, deltas...)
		viewMetrics(v, fmt.Sprintf(".view%d", view+1), f)
		all.commits += f.commits
		all.aborts += f.aborts
		all.escalations += f.escalations
		all.successNs += f.successNs
		all.abortNs += f.abortNs
		all.quotaMoves += f.quotaMoves
	}
	all.ops = all.commits
	all.delta = median(deltaAll)
	viewMetrics(v, "", all)

	for _, name := range []string{"server.group.size", "server.queue.hw", "server.queue.hw_win",
		"server.admission.rejects", "xshard.groups_per_kop", "xshard.prepares_per_group",
		"xshard.prepare_aborts", "recovery.replayed_records", "wal.appends_per_kop",
		"wal.fsyncs_per_kop", "wal.fsync_share", "wal.bytes_per_user_byte"} {
		v[name] = 0
	}
	// wire: the kv read-skew mix's frames, timed in a loop.
	rs := &readSkew{keys: 1 << 16}
	rs.ver = make([]atomic.Uint32, rs.keys)
	frames := encodeFrames(rs.mix(o.seed), 4096)
	var err error
	if v["wire.encode_ns"], v["wire.decode_ns"], err = wireLoopNs(frames); err != nil {
		return err
	}
	if v["wire.parse_ns"], err = parseNs(frames); err != nil {
		return err
	}
	if v["stmds.get_ns"], v["stmds.put_ns"], err = skipListNs(rs.keys, o.seed); err != nil {
		return err
	}
	dir, err := runDir(o.root)
	if err != nil {
		return err
	}
	if v["wal.append_us"], v["wal.sync_us"], err = walNs(dir, 1, valueLen, o.walSamples); err != nil {
		return err
	}
	v["trace.overhead_share"] = 1 - ratio(opsTraced, ops)
	out.layer = v
	return nil
}

// wireLoopNs times wire.AppendRequest over the request payloads in frames
// (re-parsed to requests first) and wire.ReadResponseReuse over matching
// GET responses read from memory: the median of five passes of mean ns.
func wireLoopNs(frames [][]byte) (encNs, decNs float64, err error) {
	reqs := make([]*wire.Request, len(frames))
	var resps bytes.Buffer
	for i, f := range frames {
		if reqs[i], err = wire.ParseRequest(f); err != nil {
			return 0, 0, err
		}
		r := wire.Response{Op: reqs[i].Op, ID: reqs[i].ID, Status: wire.StatusOK, Value: putValue(nil, reqs[i].Key, 1, valueLen)}
		b, err := wire.AppendResponse(nil, &r)
		if err != nil {
			return 0, 0, err
		}
		resps.Write(b)
	}
	var encs, decs []float64
	buf := make([]byte, 0, 1<<20)
	var resp wire.Response
	for pass := 0; pass < 5; pass++ {
		t0 := time.Now()
		buf = buf[:0]
		for _, r := range reqs {
			if buf, err = wire.AppendRequest(buf, r); err != nil {
				return 0, 0, err
			}
		}
		encs = append(encs, float64(time.Since(t0).Nanoseconds())/float64(len(reqs)))
		rd := bytes.NewReader(resps.Bytes())
		t0 = time.Now()
		for range reqs {
			if err := wire.ReadResponseReuse(rd, &resp); err != nil {
				return 0, 0, err
			}
		}
		decs = append(decs, float64(time.Since(t0).Nanoseconds())/float64(len(reqs)))
	}
	return median(encs), median(decs), nil
}
