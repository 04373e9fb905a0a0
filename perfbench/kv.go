package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"sync"
	"time"

	"votm/wire"
)

// quietGC turns the generator's garbage collector off for a kv run, with a
// memory limit as the backstop: a collection in the middle of a phase stalls
// the sender and the readers for milliseconds, and those stalls, not the
// server, would set the tail latency. The generator allocates little per
// request (sample slices are sized up front), and phase runs collect
// between phases.
func quietGC() {
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(512 << 20)
}

// kvHarness drives one votmd child through a kv workload's phases.
type kvHarness struct {
	o     *options
	srv   *votmd
	ds    []*pipe
	clock int64
	t     tally // every request of the run after set-up
}

const (
	// window is the requests in flight per connection. The total (conns ×
	// window = 128) never exceeds votmd's default per-shard queue of 128,
	// so even the hot shard cannot answer a full-queue BUSY.
	window = 64
	// rateWindow is the width of the windows the saturate ops/s is the
	// median of.
	rateWindow = 250 * time.Millisecond
)

func (h *kvHarness) connect() error {
	h.hangup()
	for i := 0; i < h.o.conns; i++ {
		d, err := dialPipe(h.srv.addr, window, h.clock)
		if err != nil {
			h.hangup()
			return fmt.Errorf("dial votmd: %w", err)
		}
		h.ds = append(h.ds, d)
	}
	return nil
}

func (h *kvHarness) hangup() {
	for _, d := range h.ds {
		d.close()
	}
	h.ds = nil
}

// close stops the child and every connection.
func (h *kvHarness) close() {
	h.hangup()
	if h.srv != nil {
		h.srv.kill()
	}
}

// setup starts votmd and preloads it setups times, keeping the last server,
// and returns the median start-to-preloaded time. args(i) gives the flags of
// the i-th start (a durable workload needs a fresh data directory each
// time).
func (h *kvHarness) setup(args func(i int) []string, preload func(i int) source) (float64, error) {
	var secs []float64
	for i := 0; i < h.o.setups; i++ {
		h.close()
		t0 := time.Now()
		srv, err := startVotmd(h.o.votmd, args(i), h.o.srvProcs)
		if err != nil {
			return 0, err
		}
		h.srv = srv
		if err := h.connect(); err != nil {
			return 0, err
		}
		var t tally
		if _, err := h.phase(preload, &t, 0, 0, false); err != nil {
			return 0, fmt.Errorf("preload: %w", err)
		}
		if t.failed() > 0 {
			return 0, fmt.Errorf("preload: %d of %d requests failed: %v", t.failed(), t.attempted.Load(), t.first)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

// phaseOut is one phase's measurements, merged over the connections.
type phaseOut struct {
	done     int64
	rates    []float64   // completions per second in each full rateWindow
	lat, rtt [][]float64 // per connection
	lag      [][]float64
	encNs    float64 // mean wire.AppendRequest span
	decNs    float64 // mean wire.ReadResponseReuse span
}

// phase runs mk's sources on every connection. With d > 0 it sends for d
// (open loop at rate requests/s in total when rate > 0, else closed loop);
// with d == 0 it runs the sources dry.
func (h *kvHarness) phase(mk func(i int) source, t *tally, d time.Duration, rate float64, traced bool) (*phaseOut, error) {
	// The generator runs with its garbage collector off (see quietGC);
	// collect between phases, never inside one.
	runtime.GC()
	start := time.Now().Add(time.Millisecond)
	var until time.Time
	if d > 0 {
		until = start.Add(d)
	}
	phs := make([]*phase, len(h.ds))
	for i := range h.ds {
		phs[i] = newPhase(mk(i), t, rate > 0, traced, int(rate*d.Seconds()/float64(len(h.ds))*1.1)+64)
	}
	errs := make([]error, len(h.ds))
	var wg sync.WaitGroup
	if rate > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[0] = paced(h.ds, phs, rate, start, until)
		}()
	} else {
		for i, dr := range h.ds {
			wg.Add(1)
			go func(i int, dr *pipe) {
				defer wg.Done()
				errs[i] = dr.closed(phs[i], until)
			}(i, dr)
		}
	}
	// Sample completions per window while the phase sends.
	out := &phaseOut{}
	stop := make(chan struct{})
	go func() { wg.Wait(); close(stop) }()
	total := func() int64 {
		var n int64
		for _, ph := range phs {
			n += ph.done.Load()
		}
		return n
	}
	time.Sleep(time.Until(start))
	tick := time.NewTicker(rateWindow)
	prev, prevAt := total(), time.Now()
sampling:
	for {
		select {
		case <-stop:
			break sampling
		case now := <-tick.C:
			if !until.IsZero() && now.After(until) {
				continue
			}
			n := total()
			out.rates = append(out.rates, float64(n-prev)/now.Sub(prevAt).Seconds())
			prev, prevAt = n, now
		}
	}
	tick.Stop()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	if err := h.srv.alive(); err != nil {
		return nil, err
	}
	var encNs, encN, decNs, decN int64
	for _, ph := range phs {
		out.done += ph.done.Load()
		encNs, encN = encNs+ph.encNs, encN+ph.encN
		decNs, decN = decNs+ph.decNs, decN+ph.decN
		out.lat = append(out.lat, ph.lat)
		out.rtt = append(out.rtt, ph.rtt)
		out.lag = append(out.lag, ph.lag)
	}
	out.encNs = ratio(float64(encNs), float64(encN))
	out.decNs = ratio(float64(decNs), float64(decN))
	return out, nil
}

// stats fetches STATS over the first connection.
func (h *kvHarness) stats() (map[uint32]wire.ShardStats, error) {
	ss, err := h.ds[0].stats()
	if err != nil {
		return nil, err
	}
	m := make(map[uint32]wire.ShardStats, len(ss))
	for _, s := range ss {
		m[s.Shard] = s
	}
	return m, nil
}

// timedPhases is the measured part every kv workload shares: a warm-up, the
// saturate phase (closed loop; ops/s, server CPU per op) and the paced phase
// (open loop at rate; latency from due time). In a traced run the saturate
// phase runs untraced then traced, and their ops/s difference is the
// tracing overhead.
type timedPhases struct {
	opsS, cpuUsPerOp float64
	p50, p99         float64
	opsTraced        float64
	sat, paced       *phaseOut
	traced           *phaseOut // traced half of the saturate phase (traced runs)
	before, after    map[uint32]wire.ShardStats
	satOps, pacedOps int64
	satWindows       int
}

func (h *kvHarness) timed(mix func(i int) source, rate float64) (*timedPhases, error) {
	o := h.o
	total := time.Duration(o.seconds) * time.Second
	warm, satD, pacedD := total/10, total*45/100, total*45/100
	if _, err := h.phase(mix, &h.t, warm, 0, false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	tp := &timedPhases{}
	var err error
	if tp.before, err = h.stats(); err != nil {
		return nil, err
	}
	untracedD := satD
	if o.trace {
		untracedD = satD / 2
	}
	// The closed loop runs the generator on one P, so it can never take more
	// than one of the host's CPUs from the server and the server's share is
	// the same from run to run; the open loop gets nproc Ps, so its readers
	// are never queued behind a writer waiting for its next due time.
	runtime.GOMAXPROCS(o.satProcs)
	defer runtime.GOMAXPROCS(o.genProcs)
	cpu0, err := h.srv.cpu()
	if err != nil {
		return nil, err
	}
	sat, err := h.phase(mix, &h.t, untracedD, 0, false)
	if err != nil {
		return nil, fmt.Errorf("saturate: %w", err)
	}
	cpu1, err := h.srv.cpu()
	if err != nil {
		return nil, err
	}
	tp.sat = sat
	tp.opsS = median(sat.rates)
	tp.satOps, tp.satWindows = sat.done, len(sat.rates)
	tp.cpuUsPerOp = float64((cpu1 - cpu0).Microseconds()) / float64(sat.done)
	if o.trace {
		tr, err := h.phase(mix, &h.t, satD-untracedD, 0, true)
		if err != nil {
			return nil, fmt.Errorf("saturate (traced): %w", err)
		}
		tp.opsTraced = median(tr.rates)
		tp.traced = tr
	}
	runtime.GOMAXPROCS(o.genProcs)
	paced, err := h.phase(mix, &h.t, pacedD, rate, o.trace)
	if err != nil {
		return nil, fmt.Errorf("paced: %w", err)
	}
	tp.paced = paced
	tp.pacedOps = paced.done
	s := summarize(paced.lat...)
	tp.p50, tp.p99 = s.P50, s.P99
	if tp.after, err = h.stats(); err != nil {
		return nil, err
	}
	return tp, nil
}

// report prints the human-readable lines of the timed phases.
func (tp *timedPhases) report(rate float64) {
	s := summarize(tp.paced.lat...)
	lag := summarize(tp.paced.lag...)
	fmt.Printf("saturate: %d ops in %d windows of %v, median %.0f ops/s (windows %s)\n",
		tp.satOps, tp.satWindows, rateWindow, tp.opsS, fmtList(tp.sat.rates, "%.0f"))
	fmt.Printf("paced: %.0f req/s open loop, %d samples in %d blocks of %d; median-of-block p50 %.1f us, p99 %.1f us; pooled p50 %.1f us, p99 %.1f us (%d samples beyond)\n",
		rate, s.N, s.Blocks, blockLen, s.P50, s.P99, s.AllP50, s.AllP99, s.Beyond99)
	fmt.Printf("generator lateness: pooled p50 %.1f us, p99 %.1f us\n", lag.AllP50, lag.AllP99)
}

func fmtList(xs []float64, f string) string {
	s := "["
	for i, x := range xs {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf(f, x)
	}
	return s + "]"
}

// layerStats turns the STATS delta over the timed phases into per-layer
// metrics. ops is the number of client requests in that interval.
func layerStats(v values, before, after map[uint32]wire.ShardStats, ops float64) {
	type agg struct {
		groups, groupOps, commits, aborts, esc, succNs, abortNs, moves float64
		deltaW, deltaSum                                               float64
	}
	var all, hot, rest agg
	hotShard, hotOps := uint32(0), -1.0
	ids := make([]uint32, 0, len(after))
	for id := range after {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var hw, hwWin, rejects, xsGroups, xsPrep, xsAborts, walApp, walFsync, walBytes, replayed float64
	per := map[uint32]agg{}
	for _, id := range ids {
		a, b := after[id], before[id]
		d := func(x, y uint64) float64 { return float64(x - y) }
		s := agg{
			groups: d(a.Groups, b.Groups), groupOps: d(a.GroupOps, b.GroupOps),
			commits: d(a.Commits, b.Commits), aborts: d(a.Aborts, b.Aborts),
			esc: d(a.Escalations, b.Escalations), succNs: d(a.SuccessNs, b.SuccessNs),
			abortNs: d(a.AbortNs, b.AbortNs), moves: d(a.QuotaMoves, b.QuotaMoves),
		}
		if a.Delta == a.Delta { // not NaN (Q ≤ 1)
			s.deltaW, s.deltaSum = s.commits, s.commits*a.Delta
		}
		per[id] = s
		if s.groupOps > hotOps {
			hotShard, hotOps = id, s.groupOps
		}
		hw = max(hw, float64(a.QueueHighWater))
		hwWin = max(hwWin, float64(a.QueueHighWaterWin))
		rejects += d(a.AdmissionRejects+a.RingFullEvents, b.AdmissionRejects+b.RingFullEvents)
		xsGroups += d(a.CrossShardGroups, b.CrossShardGroups)
		xsPrep += d(a.CrossShardPrepares, b.CrossShardPrepares)
		xsAborts += d(a.PrepareAborts, b.PrepareAborts)
		walApp += d(a.WalAppends, b.WalAppends)
		walFsync += d(a.Fsyncs, b.Fsyncs)
		walBytes += d(a.WalBytes, b.WalBytes)
		replayed += float64(a.ReplayedRecords)
	}
	add := func(dst *agg, s agg) {
		dst.groups += s.groups
		dst.groupOps += s.groupOps
		dst.commits += s.commits
		dst.aborts += s.aborts
		dst.esc += s.esc
		dst.succNs += s.succNs
		dst.abortNs += s.abortNs
		dst.moves += s.moves
		dst.deltaW += s.deltaW
		dst.deltaSum += s.deltaSum
	}
	for _, id := range ids {
		add(&all, per[id])
		if id == hotShard {
			add(&hot, per[id])
		} else {
			add(&rest, per[id])
		}
	}
	v["server.group.size"] = ratio(all.groupOps, all.groups)
	v["server.queue.hw"] = hw
	v["server.queue.hw_win"] = hwWin
	v["server.admission.rejects"] = rejects
	v["xshard.groups_per_kop"] = ratio(xsGroups*1000, ops)
	v["xshard.prepares_per_group"] = ratio(xsPrep, xsGroups)
	v["xshard.prepare_aborts"] = xsAborts
	v["recovery.replayed_records"] = replayed
	v["wal.appends_per_kop"] = ratio(walApp*1000, ops)
	v["wal.fsyncs_per_kop"] = ratio(walFsync*1000, ops)
	v["wal.fsync_share"] = ratio(walFsync, walApp)
	v["wal.bytes_per_user_byte"] = walBytes // divided by the caller
	for suffix, s := range map[string]agg{"": all, ".view1": hot, ".view2": rest} {
		viewMetrics(v, suffix, viewFigures{
			ops: s.groupOps, commits: s.commits, aborts: s.aborts, escalations: s.esc,
			successNs: s.succNs, abortNs: s.abortNs, quotaMoves: s.moves,
			delta: ratio(s.deltaSum, s.deltaW),
		})
	}
}

// viewFigures are one view's (or view group's) transaction counters.
type viewFigures struct {
	ops, commits, aborts, escalations float64
	successNs, abortNs, quotaMoves    float64
	delta                             float64
}

func viewMetrics(v values, suffix string, f viewFigures) {
	v["core.abort_share"+suffix] = ratio(f.abortNs, f.abortNs+f.successNs)
	v["core.exec_ns_per_op"+suffix] = ratio(f.successNs+f.abortNs, f.ops)
	v["core.escalations"+suffix] = f.escalations
	v["stm.commit_ns_per_tx"+suffix] = ratio(f.successNs, f.commits)
	v["rac.delta"+suffix] = f.delta
	v["rac.quota_moves"+suffix] = f.quotaMoves
}

// split gives connection i of n its share of [0, total).
func split(i, n, total int) (uint64, uint64) {
	per := total / n
	end := per * (i + 1)
	if i == n-1 {
		end = total
	}
	return uint64(per * i), uint64(end)
}

// runDir is the run's working directory under the build directory.
func runDir(root string) (string, error) {
	dir := filepath.Join(root, ".bench_build", "run-"+strconv.Itoa(os.Getpid()))
	return dir, os.MkdirAll(dir, 0o755)
}

// restarts SIGKILLs and restarts the server n times and returns the median
// time from exec to the first answered request. The connections are
// re-established to the last incarnation.
func (h *kvHarness) restarts(n int) (float64, error) {
	h.hangup()
	var secs []float64
	for i := 0; i < n; i++ {
		d, err := h.srv.restart()
		if err != nil {
			return 0, err
		}
		secs = append(secs, d.Seconds())
	}
	if n > 1 {
		fmt.Printf("restarts s: %s\n", fmtList(secs, "%.4f"))
	}
	if len(secs) == 0 {
		return 0, errors.New("no restarts")
	}
	return median(secs), h.connect()
}
