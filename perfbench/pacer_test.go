package main

import (
	"testing"
	"time"
)

func TestPacerSchedule(t *testing.T) {
	start := time.Unix(0, 0)
	p := newPacer(start, 1000) // one request per millisecond
	if got := p.due(3); !got.Equal(start.Add(3 * time.Millisecond)) {
		t.Fatalf("due(3) = %v", got.Sub(start))
	}
	for _, c := range []struct {
		at   time.Duration
		want int64
	}{{-time.Millisecond, 0}, {0, 1}, {999 * time.Microsecond, 1}, {time.Millisecond, 2}, {10500 * time.Microsecond, 11}} {
		if got := p.dueBy(start.Add(c.at)); got != c.want {
			t.Errorf("dueBy(%v) = %d, want %d", c.at, got, c.want)
		}
	}
}

// TestPacerBacklogAndLateness: a generator that stalls keeps its schedule;
// the stall shows as a backlog and as lateness of the requests behind it.
func TestPacerBacklogAndLateness(t *testing.T) {
	start := time.Unix(0, 0)
	p := newPacer(start, 1000)
	now := start.Add(10 * time.Millisecond) // stalled for 10ms before the first send
	if got := p.backlog(now); got != 11 {
		t.Fatalf("backlog = %d, want 11", got)
	}
	var late []time.Duration
	for p.backlog(now) > 0 {
		late = append(late, p.lateness(p.sent, now))
		p.sent++
	}
	if len(late) != 11 || late[0] != 10*time.Millisecond || late[10] != 0 {
		t.Fatalf("lateness = %v", late)
	}
	// Caught up: nothing due until the next slot, and an early send is not
	// negative lateness.
	if got := p.backlog(now.Add(500 * time.Microsecond)); got != 0 {
		t.Fatalf("backlog after catching up = %d", got)
	}
	if got := p.lateness(20, now); got != 0 {
		t.Fatalf("lateness of an early send = %v", got)
	}
}
