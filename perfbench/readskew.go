package main

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"votm/wire"
)

// kv-read-skew: votmd at its defaults (8 shards × 4 workers, NOrec,
// batch-max 16), durability off; 90% GET / 10% PUT of 64-byte values over
// Zipf(s=1.1) keys, so the head of the distribution puts a shard's four
// workers on one hot view.

const (
	opGet = iota + 1
	opPut
	opXfer
	opBalance
)

// readSkewRate is the paced phase's fixed request rate: about a quarter of
// the saturate ops/s on an idle 2-vCPU host at this commit, so the open loop
// stays under capacity even when the host's CPUs are shared and the
// saturate rate halves.
const readSkewRate = 60_000

type readSkew struct {
	keys int
	ver  []atomic.Uint32 // highest PUT version sent per key
}

type rsPreload struct {
	w      *readSkew
	k, end uint64
}

func (s *rsPreload) next(req *wire.Request, p *pend) bool {
	if s.k >= s.end {
		return false
	}
	req.Op, req.Key = wire.OpPut, s.k
	req.Value = putValue(req.Value, s.k, 0, valueLen)
	*p = pend{kind: opPut, key: s.k}
	s.k++
	return true
}

func (s *rsPreload) check(p *pend, resp *wire.Response) error { return s.w.check(p, resp) }

type rsMix struct {
	w    *readSkew
	rng  *rand.Rand
	zipf *rand.Zipf
}

func (w *readSkew) mix(seed int64) *rsMix {
	rng := rand.New(rand.NewSource(seed))
	return &rsMix{w: w, rng: rng, zipf: rand.NewZipf(rng, 1.1, 1, uint64(w.keys-1))}
}

func (s *rsMix) next(req *wire.Request, p *pend) bool {
	k := s.zipf.Uint64()
	if s.rng.Intn(10) == 0 {
		v := s.w.ver[k].Add(1)
		req.Op, req.Key = wire.OpPut, k
		req.Value = putValue(req.Value, k, v, valueLen)
		*p = pend{kind: opPut, key: k, ver: v}
		return true
	}
	req.Op, req.Key = wire.OpGet, k
	*p = pend{kind: opGet, key: k}
	return true
}

func (s *rsMix) check(p *pend, resp *wire.Response) error { return s.w.check(p, resp) }

// check: a PUT must succeed; a GET must return the key's own value at a
// version no newer than the last PUT attempted for it.
func (w *readSkew) check(p *pend, resp *wire.Response) error {
	if resp.Status != wire.StatusOK {
		return fmt.Errorf("%v of key %d: %v", resp.Op, p.key, resp.Status)
	}
	if p.kind == opGet {
		_, err := checkValue(resp.Value, p.key, 0, w.ver[p.key].Load())
		return err
	}
	return nil
}

func runReadSkew(o *options) (*outcome, error) {
	w := &readSkew{keys: o.keys}
	w.ver = make([]atomic.Uint32, w.keys)
	quietGC()
	h := &kvHarness{o: o, clock: clockCost()}
	defer h.close()
	flags := []string{"-shards", "8", "-workers", "4", "-engine", "norec", "-batch-max", "16"}
	preload := func(i int) source {
		lo, hi := split(i, o.conns, w.keys)
		return &rsPreload{w: w, k: lo, end: hi}
	}
	setupS, err := h.setup(func(int) []string { return flags }, preload)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	mixes := make([]*rsMix, o.conns)
	for i := range mixes {
		mixes[i] = w.mix(o.seed*1000 + int64(i))
	}
	mix := func(i int) source { return mixes[i] }
	rate := o.rate(readSkewRate)
	tp, err := h.timed(mix, rate)
	if err != nil {
		return nil, err
	}
	out := newOutcome(o, h.srv.flags())
	tp.report(rate)

	restart, err := h.restarts(o.restarts)
	if err != nil {
		return nil, err
	}
	fmt.Printf("setup: median %.3f s over %d starts+preloads of %d keys; restart (durability off): median %.4f s over %d\n",
		setupS, o.setups, w.keys, restart, o.restarts)

	out.addTally(&h.t)
	out.e2e = values{
		"setup_s":              setupS,
		"ops_s":                tp.opsS,
		"p50_us":               tp.p50,
		"p99_us":               tp.p99,
		"server_cpu_us_per_op": tp.cpuUsPerOp,
		"restart_s":            restart,
	}
	if o.trace {
		if err := kvLayers(o, out, tp, float64(tp.satOps+tp.pacedOps), 0, w.frames(o.seed, 4096), w.keys); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// frames encodes n requests of the workload's mix from a private copy of
// its state, for timing the server-side parser outside the server.
func (w *readSkew) frames(seed int64, n int) [][]byte {
	cp := &readSkew{keys: w.keys, ver: make([]atomic.Uint32, w.keys)}
	m := cp.mix(seed ^ 0x5eed)
	return encodeFrames(m, n)
}
