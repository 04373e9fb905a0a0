package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"votm/wire"
)

// The load generator speaks raw pipelined wire frames: the synchronous
// client package cannot keep more than one request per connection in
// flight, so it can never stand up a server-side queue.
//
// One pipe owns one connection: the caller's goroutine writes batches of
// frames, a reader goroutine decodes responses, checks them and hands the
// request's slot back as a credit. Every wait on the reader is bounded by
// stallTimeout and by the reader's exit, so a dead reader or a silent
// server ends the run with an error instead of a hang.

const (
	maxBatch     = 64 // frames encoded into one socket write
	stallTimeout = 10 * time.Second
	kindCall     = 255 // pend.kind of a synchronous call (STATS, PING)
)

var errStall = errors.New("server stalled")

// pend is what the reader needs to check one response and time it.
type pend struct {
	kind uint8
	key  uint64
	ver  uint32
	due  int64 // UnixNano the request was due (paced) or sent (closed loop)
	sent int64 // UnixNano of the socket write (traced runs only)
}

// slot holds the request occupying one credit. id is stored after p is
// filled and loaded by the reader before it reads p, which orders the two.
type slot struct {
	id atomic.Uint32
	p  pend
}

// source generates one pipe's requests for a phase and checks their
// answers. next runs on the pipe's writer (filling the pipe's request
// buffer); check runs on the readers, so state it shares with other
// pipes' sources must be safe for concurrent use.
type source interface {
	next(req *wire.Request, p *pend) bool
	check(p *pend, resp *wire.Response) error
}

// finisher is implemented by sources that must see every answer, whatever
// its status (to release per-key state held while a request is in flight).
type finisher interface {
	finish(p *pend)
}

// tally counts outcomes against attempts.
type tally struct {
	attempted, ok, busy, errs, wrong atomic.Int64

	mu    sync.Mutex
	first error // first wrong answer or error status
}

func (t *tally) note(err error) {
	t.mu.Lock()
	if t.first == nil {
		t.first = err
	}
	t.mu.Unlock()
}

func (t *tally) failed() int64 { return t.busy.Load() + t.errs.Load() + t.wrong.Load() }

// phase is one measured stretch of traffic on one pipe.
type phase struct {
	src    source
	t      *tally
	paced  bool
	traced bool
	done   atomic.Int64 // responses received

	// Samples in µs, in completion (lat, rtt) or send (lag) order.
	lat, rtt []float64 // reader-owned: latency from due time; write→decode
	lag      []float64 // writer-owned: send lateness

	encNs, encN int64 // writer-owned wire.AppendRequest spans
	decNs, decN int64 // reader-owned wire.ReadResponseReuse spans
}

// newPhase makes a phase. expect, when known, sizes the sample slices up
// front so recording a sample does not allocate.
func newPhase(src source, t *tally, paced, traced bool, expect int) *phase {
	ph := &phase{src: src, t: t, paced: paced, traced: traced}
	if paced {
		ph.lat = make([]float64, 0, expect)
		ph.lag = make([]float64, 0, expect)
	}
	if traced {
		ph.rtt = make([]float64, 0, expect)
	}
	return ph
}

// account books one response against its request.
func (ph *phase) account(p *pend, resp *wire.Response, now time.Time) {
	switch resp.Status {
	case wire.StatusOK, wire.StatusNotFound:
		if err := ph.src.check(p, resp); err != nil {
			ph.t.wrong.Add(1)
			ph.t.note(err)
		} else {
			ph.t.ok.Add(1)
		}
	case wire.StatusBusy:
		ph.t.busy.Add(1)
	default:
		ph.t.errs.Add(1)
		ph.t.note(fmt.Errorf("%v answered %v: %s", wire.Op(resp.Op), resp.Status, resp.Value))
	}
	if f, ok := ph.src.(finisher); ok {
		f.finish(p)
	}
	if ph.paced {
		ph.lat = append(ph.lat, float64(now.UnixNano()-p.due)/1e3)
	}
	if ph.traced && p.sent != 0 {
		ph.rtt = append(ph.rtt, float64(now.UnixNano()-p.sent)/1e3)
	}
	ph.done.Add(1)
}

// pipe is one pipelined connection to votmd.
type pipe struct {
	conn    net.Conn
	slots   []slot
	credits chan uint16 // free slot indices; capacity len(slots)
	gen     uint32
	ph      atomic.Pointer[phase]
	clockNs int64         // cost of a time.Now pair, subtracted from spans
	stall   time.Duration // longest wait for an answer before the run fails

	timer  *time.Timer         // stall timer of take, reused
	stop   chan struct{}       // closed by close
	dead   chan struct{}       // closed when the reader exits
	rerr   error               // reader's exit error, readable after dead
	callCh chan *wire.Response // answers to call

	req wire.Request
	buf []byte
}

func dialPipe(addr string, window int, clockNs int64) (*pipe, error) {
	if window < 1 || window > 1<<16 {
		return nil, fmt.Errorf("window %d out of range", window)
	}
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		return nil, err
	}
	d := &pipe{
		conn:    conn,
		slots:   make([]slot, window),
		credits: make(chan uint16, window),
		clockNs: clockNs,
		stall:   stallTimeout,
		stop:    make(chan struct{}),
		dead:    make(chan struct{}),
		callCh:  make(chan *wire.Response, 1),
	}
	for i := 0; i < window; i++ {
		d.credits <- uint16(i)
	}
	go d.readLoop()
	return d, nil
}

// close shuts the connection and waits for the reader to exit.
func (d *pipe) close() {
	select {
	case <-d.stop:
	default:
		close(d.stop)
	}
	_ = d.conn.Close()
	<-d.dead
}

func (d *pipe) readErr() error {
	select {
	case <-d.stop:
		return errors.New("connection closed")
	default:
	}
	if d.rerr == nil {
		return errors.New("reader exited")
	}
	return fmt.Errorf("reader: %w", d.rerr)
}

// frameBuffered reports whether the next whole response frame is already
// buffered, so that decoding it does not wait on the socket.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < 4 {
		return false
	}
	hdr, err := br.Peek(4)
	if err != nil {
		return false
	}
	return br.Buffered() >= 4+int(binary.LittleEndian.Uint32(hdr))
}

func (d *pipe) readLoop() {
	defer close(d.dead)
	br := bufio.NewReaderSize(d.conn, 64<<10)
	var resp wire.Response
	for {
		cur := d.ph.Load()
		timed := cur != nil && cur.traced && frameBuffered(br)
		var t0 time.Time
		if timed {
			t0 = time.Now()
		}
		if err := wire.ReadResponseReuse(br, &resp); err != nil {
			d.rerr = err
			return
		}
		ph := d.ph.Load()
		var now time.Time
		if timed || (ph != nil && (ph.paced || ph.traced)) {
			now = time.Now()
		}
		s := int(resp.ID & 0xffff)
		if s >= len(d.slots) || d.slots[s].id.Load() != resp.ID {
			d.rerr = fmt.Errorf("response with unknown id %#x (%v %v)", resp.ID, resp.Op, resp.Status)
			return
		}
		p := &d.slots[s].p
		d.slots[s].id.Store(0)
		if p.kind == kindCall {
			cp := resp
			cp.Value = append([]byte(nil), resp.Value...)
			cp.Stats = append([]wire.ShardStats(nil), resp.Stats...)
			cp.Subs = nil
			select {
			case d.callCh <- &cp:
			case <-d.stop:
				return
			}
		} else {
			if ph == nil {
				d.rerr = errors.New("response outside any phase")
				return
			}
			if timed && ph == cur {
				ph.decNs += max(0, now.Sub(t0).Nanoseconds()-d.clockNs)
				ph.decN++
			}
			ph.account(p, &resp, now)
		}
		d.credits <- uint16(s)
	}
}

// take waits for a free slot.
func (d *pipe) take() (uint16, error) {
	select {
	case s := <-d.credits:
		return s, nil
	default:
	}
	if d.timer == nil {
		d.timer = time.NewTimer(d.stall)
	} else {
		d.timer.Reset(d.stall)
	}
	t := d.timer
	defer func() {
		if !t.Stop() {
			select {
			case <-t.C:
			default:
			}
		}
	}()
	select {
	case s := <-d.credits:
		return s, nil
	case <-d.dead:
		return 0, d.readErr()
	case <-t.C:
		return 0, fmt.Errorf("%w: no answer for %v with %d requests in flight",
			errStall, d.stall, len(d.slots)-len(d.credits))
	}
}

// drain waits until every request in flight is answered.
func (d *pipe) drain() error {
	held := make([]uint16, 0, len(d.slots))
	for len(held) < len(d.slots) {
		s, err := d.take()
		if err != nil {
			return err
		}
		held = append(held, s)
	}
	for _, s := range held {
		d.credits <- s
	}
	return nil
}

func (d *pipe) nextID(s uint16) uint32 {
	d.gen++
	if d.gen >= 1<<16 {
		d.gen = 1
	}
	return d.gen<<16 | uint32(s)
}

func (d *pipe) write() error {
	_ = d.conn.SetWriteDeadline(time.Now().Add(d.stall))
	_, err := d.conn.Write(d.buf)
	d.buf = d.buf[:0]
	return err
}

// encode appends one frame for req, timing it on traced phases.
func (d *pipe) encode(ph *phase) error {
	var err error
	if ph != nil && ph.traced {
		t0 := time.Now()
		d.buf, err = wire.AppendRequest(d.buf, &d.req)
		ph.encNs += max(0, time.Since(t0).Nanoseconds()-d.clockNs)
		ph.encN++
	} else {
		d.buf, err = wire.AppendRequest(d.buf, &d.req)
	}
	return err
}

// queue appends one request of ph's source, in slot s, to the write
// buffer. It returns false, freeing s, when the source has run dry.
func (d *pipe) queue(ph *phase, s uint16, due, now time.Time) (bool, error) {
	var p pend
	d.req = wire.Request{Value: d.req.Value[:0], Subs: d.req.Subs[:0]}
	if !ph.src.next(&d.req, &p) {
		d.credits <- s
		return false, nil
	}
	id := d.nextID(s)
	d.req.ID = id
	p.due = due.UnixNano()
	if ph.traced {
		p.sent = now.UnixNano()
	}
	if err := d.encode(ph); err != nil {
		d.credits <- s
		return false, err
	}
	d.slots[s].p = p
	d.slots[s].id.Store(id)
	ph.t.attempted.Add(1)
	return true, nil
}

func (d *pipe) flush() error {
	if len(d.buf) == 0 {
		return nil
	}
	if err := d.write(); err != nil {
		return fmt.Errorf("write: %w", err)
	}
	return nil
}

// closed runs ph as a closed loop, every free slot refilled at once, until
// the time until (zero: until the source runs dry), then waits for every
// answer.
func (d *pipe) closed(ph *phase, until time.Time) error {
	d.ph.Store(ph)
	for more := true; more; {
		if !until.IsZero() && !time.Now().Before(until) {
			break
		}
		s, err := d.take()
		if err != nil {
			return err
		}
		now := time.Now()
		for n := 1; ; n++ {
			if more, err = d.queue(ph, s, now, now); err != nil {
				return err
			}
			if !more || n == maxBatch {
				break
			}
			var ok bool
			select {
			case s = <-d.credits:
				ok = true
			default:
			}
			if !ok {
				break
			}
		}
		if err := d.flush(); err != nil {
			return err
		}
	}
	return d.drain()
}

// paced runs phs on ds as one open loop of rate requests/s in total from
// start until until, request i on connection i mod len(ds), then waits for
// every answer. One goroutine sends for every connection, so while it
// sleeps to the next due time it holds at most one P and the readers keep
// the others. A full window stalls the schedule; the stall shows as
// lateness and as latency of the requests behind it.
func paced(ds []*pipe, phs []*phase, rate float64, start, until time.Time) error {
	for i, d := range ds {
		d.ph.Store(phs[i])
	}
	pc := newPacer(start, rate)
	flushAll := func() error {
		var err error
		for _, d := range ds {
			err = errors.Join(err, d.flush())
		}
		return err
	}
	err := func() error {
		for {
			now := time.Now()
			if !now.Before(until) {
				return nil
			}
			b := pc.backlog(now)
			if b == 0 {
				next := pc.due(pc.sent)
				if next.After(until) {
					next = until
				}
				sleepUntil(next)
				continue
			}
			for n := min(b, int64(maxBatch*len(ds))); n > 0; n-- {
				i := int(pc.sent % int64(len(ds)))
				d, ph := ds[i], phs[i]
				var s uint16
				var ok bool
				select {
				case s = <-d.credits:
					ok = true
				default:
				}
				if !ok {
					// Window full: send what is queued, then wait.
					if err := flushAll(); err != nil {
						return err
					}
					var err error
					if s, err = d.take(); err != nil {
						return err
					}
					now = time.Now()
				}
				ph.lag = append(ph.lag, float64(pc.lateness(pc.sent, now).Nanoseconds())/1e3)
				more, err := d.queue(ph, s, pc.due(pc.sent), now)
				if err != nil {
					return err
				}
				if !more {
					return errors.New("open-loop source ran dry")
				}
				pc.sent++
			}
			if err := flushAll(); err != nil {
				return err
			}
		}
	}()
	for _, d := range ds {
		err = errors.Join(err, d.drain())
	}
	return err
}

// call sends one request while no phase is running and returns its answer.
func (d *pipe) call(req *wire.Request) (*wire.Response, error) {
	s, err := d.take()
	if err != nil {
		return nil, err
	}
	id := d.nextID(s)
	r := *req
	r.ID = id
	if d.buf, err = wire.AppendRequest(d.buf[:0], &r); err != nil {
		d.credits <- s
		return nil, err
	}
	d.slots[s].p = pend{kind: kindCall}
	d.slots[s].id.Store(id)
	if err := d.write(); err != nil {
		return nil, fmt.Errorf("write: %w", err)
	}
	t := time.NewTimer(d.stall)
	defer t.Stop()
	select {
	case resp := <-d.callCh:
		return resp, nil
	case <-d.dead:
		return nil, d.readErr()
	case <-t.C:
		return nil, fmt.Errorf("%w: no answer to %v within %v", errStall, req.Op, d.stall)
	}
}

// stats fetches every shard's STATS snapshot.
func (d *pipe) stats() ([]wire.ShardStats, error) {
	resp, err := d.call(&wire.Request{Op: wire.OpStats, Shard: wire.AllShards})
	if err != nil {
		return nil, err
	}
	if resp.Status != wire.StatusOK {
		return nil, fmt.Errorf("STATS: %v", resp.Status)
	}
	return resp.Stats, nil
}

// encodeFrames encodes n requests of src.
func encodeFrames(src source, n int) [][]byte {
	var req wire.Request
	var p pend
	out := make([][]byte, 0, n)
	for i := 0; i < n; i++ {
		req = wire.Request{Value: req.Value[:0], Subs: req.Subs[:0]}
		if !src.next(&req, &p) {
			break
		}
		if f, ok := src.(finisher); ok {
			f.finish(&p) // never sent: release what next holds for it
		}
		req.ID = uint32(i + 1)
		f, err := wire.AppendRequest(nil, &req)
		if err != nil {
			continue
		}
		out = append(out, f[4:]) // payload: the length prefix is framing
	}
	return out
}

// sleepUntil blocks until t. The runtime's timers round waits under a
// millisecond up to one (its poller sleeps in whole milliseconds), which
// would make the open loop's own lateness dominate its latency figures;
// nanosleep on the OS thread wakes within the kernel's timer slack (~50µs).
func sleepUntil(t time.Time) {
	d := time.Until(t)
	if d <= 0 {
		return
	}
	if d >= 2*time.Millisecond {
		time.Sleep(d)
		return
	}
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	_ = syscall.Nanosleep(&ts, nil)
}

// clockCost is the median cost of a time.Now pair on this host, the bias
// every span carries.
func clockCost() int64 {
	const n = 2001
	xs := make([]float64, n)
	for i := range xs {
		t0 := time.Now()
		xs[i] = float64(time.Since(t0).Nanoseconds())
	}
	return int64(median(xs))
}
