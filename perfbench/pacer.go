package main

import "time"

// pacer is the open-loop schedule of one connection: request i is due at
// start + i/rate, whatever happened to the requests before it. Latency is
// timed from the due time, so a stall that delays later sends is charged to
// them (no coordinated omission), and the gap between the due time and the
// actual send is the generator's lateness.
type pacer struct {
	start time.Time
	perNs float64 // requests per nanosecond
	sent  int64   // requests handed to the socket so far
}

func newPacer(start time.Time, ratePerSec float64) *pacer {
	return &pacer{start: start, perNs: ratePerSec / 1e9}
}

// due is the time request i is scheduled for.
func (p *pacer) due(i int64) time.Time {
	return p.start.Add(time.Duration(float64(i) / p.perNs))
}

// dueBy is the number of requests scheduled at or before now.
func (p *pacer) dueBy(now time.Time) int64 {
	el := now.Sub(p.start)
	if el < 0 {
		return 0
	}
	return int64(float64(el)*p.perNs) + 1
}

// backlog is how many scheduled requests have not been sent by now.
func (p *pacer) backlog(now time.Time) int64 {
	return max(0, p.dueBy(now)-p.sent)
}

// lateness is how far behind schedule a send of request i at time at ran;
// an early send (never produced by the generator) counts as zero.
func (p *pacer) lateness(i int64, at time.Time) time.Duration {
	return max(0, at.Sub(p.due(i)))
}
