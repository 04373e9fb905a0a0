package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"votm/internal/core"
	"votm/internal/stmds"
	"votm/internal/wal"
	"votm/wire"
)

// Per-layer spans measured from outside the server, by timing calls into
// each layer's public functions with the workload's own shapes.

// parseNs is the mean wire.ParseRequestReuse time over frames: the median
// of five passes, each repeated until it covers at least 20ms.
func parseNs(frames [][]byte) (float64, error) {
	if len(frames) == 0 {
		return 0, fmt.Errorf("no frames to parse")
	}
	var req wire.Request
	var passes []float64
	for pass := 0; pass < 5; pass++ {
		n := 0
		t0 := time.Now()
		for time.Since(t0) < 20*time.Millisecond {
			for _, f := range frames {
				if err := wire.ParseRequestReuse(&req, f); err != nil {
					return 0, fmt.Errorf("parse own frame: %w", err)
				}
			}
			n += len(frames)
		}
		passes = append(passes, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(passes), nil
}

// skipListNs times stmds.SkipList Get and Put (update of a present key),
// each inside its own NOrec view transaction, over a list holding keys keys,
// with Zipf(1.1) key choice as the kv workloads use. It returns the medians
// of five passes of mean ns per transaction.
func skipListNs(keys int, seed int64) (getNs, putNs float64, err error) {
	rt := core.NewRuntime(core.Config{Threads: 1, Engine: core.NOrec})
	v, err := rt.CreateView(1, keys*8+1<<16, 4)
	if err != nil {
		return 0, 0, err
	}
	th := rt.RegisterThread()
	defer th.Release()
	sl, err := stmds.NewSkipList(v, 0)
	if err != nil {
		return 0, 0, err
	}
	ctx := context.Background()
	const chunk = 256
	nodes := make([]stmds.Ref, chunk)
	for base := 0; base < keys; base += chunk {
		n := min(chunk, keys-base)
		for i := 0; i < n; i++ {
			if nodes[i], err = sl.NewNode(uint64(base + i)); err != nil {
				return 0, 0, err
			}
		}
		if err := v.Atomic(ctx, th, func(tx core.Tx) error {
			for i := 0; i < n; i++ {
				sl.Put(tx, uint64(base+i), 0, nodes[i])
			}
			return nil
		}); err != nil {
			return 0, 0, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(keys-1))
	const perPass = 20000
	ks := make([]uint64, perPass)
	var gets, puts []float64
	var sink uint64
	for pass := 0; pass < 5; pass++ {
		for i := range ks {
			ks[i] = zipf.Uint64()
		}
		t0 := time.Now()
		for _, k := range ks {
			if err := v.Atomic(ctx, th, func(tx core.Tx) error {
				x, _ := sl.Get(tx, k)
				sink += x
				return nil
			}); err != nil {
				return 0, 0, err
			}
		}
		gets = append(gets, float64(time.Since(t0).Nanoseconds())/perPass)
		t0 = time.Now()
		for _, k := range ks {
			if err := v.Atomic(ctx, th, func(tx core.Tx) error {
				sl.Put(tx, k, k, stmds.NilRef)
				return nil
			}); err != nil {
				return 0, 0, err
			}
		}
		puts = append(puts, float64(time.Since(t0).Nanoseconds())/perPass)
	}
	_ = sink
	return median(gets), median(puts), nil
}

// walNs times wal.Append and the Sync that follows it for batches of recs
// records of recBytes-byte values, in a fresh log under dir (on the same
// filesystem as the durable workload's WAL). It returns the medians in µs.
func walNs(dir string, recs, recBytes, n int) (appendUs, syncUs float64, err error) {
	dir = filepath.Join(dir, "wal-layer")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return 0, 0, err
	}
	if err := l.Start(1); err != nil {
		_ = l.Close()
		return 0, 0, err
	}
	batch := make([]wal.Record, max(1, recs))
	val := make([]byte, recBytes)
	for i := range batch {
		batch[i] = wal.Record{Kind: wal.RecPut, Key: uint64(i), Value: val}
	}
	var apps, syncs []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		seq, _, err := l.Append(batch)
		if err != nil {
			_ = l.Close()
			return 0, 0, err
		}
		t1 := time.Now()
		if err := l.Sync(seq); err != nil {
			_ = l.Close()
			return 0, 0, err
		}
		apps = append(apps, float64(t1.Sub(t0).Nanoseconds())/1e3)
		syncs = append(syncs, float64(time.Since(t1).Nanoseconds())/1e3)
	}
	return median(apps), median(syncs), l.Close()
}

// kvLayers fills the traced run's per-layer metrics of a kv workload. ops is
// the client requests over the timed phases, userBytes the key and value
// bytes they asked the server to store (0 when none reach a WAL).
func kvLayers(o *options, out *outcome, tp *timedPhases, ops, userBytes float64, frames [][]byte, dataKeys int) error {
	v := values{}
	v["wire.encode_ns"] = tp.traced.encNs
	v["wire.decode_ns"] = tp.traced.decNs
	var err error
	if v["wire.parse_ns"], err = parseNs(frames); err != nil {
		return err
	}
	layerStats(v, tp.before, tp.after, ops)
	v["wal.bytes_per_user_byte"] = ratio(v["wal.bytes_per_user_byte"], userBytes)
	if v["stmds.get_ns"], v["stmds.put_ns"], err = skipListNs(max(dataKeys, 2), o.seed); err != nil {
		return fmt.Errorf("skip list: %w", err)
	}
	recs, recBytes := int(math.Round(v["server.group.size"])), valueLen
	if v["wal.appends_per_kop"] > 0 {
		// Durable: the observed bytes per WAL append, split over the
		// group's records (13 bytes of record header each).
		var walBytes, appends float64
		for id, a := range tp.after {
			b := tp.before[id]
			walBytes += float64(a.WalBytes - b.WalBytes)
			appends += float64(a.WalAppends - b.WalAppends)
		}
		recBytes = int(ratio(walBytes, appends)/float64(max(recs, 1))) - 13
	}
	dir, err := runDir(o.root)
	if err != nil {
		return err
	}
	if v["wal.append_us"], v["wal.sync_us"], err = walNs(dir, max(recs, 1), max(recBytes, 8), o.walSamples); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	v["trace.overhead_share"] = 1 - ratio(tp.opsTraced, tp.opsS)

	rtt := summarize(tp.traced.rtt...)
	lag := summarize(tp.paced.lag...)
	fmt.Printf("net.rtt_us (saturate, traced): p50 %.1f p99 %.1f over %d frames; gen.lag_us p99 %.1f (paced)\n",
		rtt.AllP50, rtt.AllP99, rtt.N, lag.AllP99)
	fmt.Printf("wal micro: %d records of %d bytes per append, %d samples\n", max(recs, 1), max(recBytes, 8), o.walSamples)
	out.layer = v
	return nil
}
