package main

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"votm/wire"
)

// getAll is a closed-loop source of n GETs that accepts any answer.
type getAll struct{ n int }

func (s *getAll) next(req *wire.Request, p *pend) bool {
	if s.n == 0 {
		return false
	}
	s.n--
	req.Op, req.Key = wire.OpGet, uint64(s.n)
	*p = pend{kind: opGet, key: uint64(s.n)}
	return true
}

func (s *getAll) check(*pend, *wire.Response) error { return nil }

// fakeServer accepts one connection and hands it to serve.
func fakeServer(t *testing.T, serve func(c net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	t.Cleanup(func() { _ = ln.Close(); <-done })
	go func() {
		defer close(done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		serve(c)
	}()
	return ln.Addr().String()
}

// runPhase runs a closed loop of n GETs on d and returns its error and how
// long it took.
func runPhase(d *pipe, n int) (error, time.Duration) {
	var t tally
	t0 := time.Now()
	err := d.closed(newPhase(&getAll{n: n}, &t, false, false, 0), time.Time{})
	return err, time.Since(t0)
}

// A server that drops the connection mid-run must end the run with an
// error at once, not leave the writer waiting for credits.
func TestPipeFailsWhenServerCloses(t *testing.T) {
	addr := fakeServer(t, func(c net.Conn) {
		_, _ = io.ReadFull(c, make([]byte, 64))
	})
	d, err := dialPipe(addr, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	err, took := runPhase(d, 1000)
	if err == nil {
		t.Fatal("run against a closed connection succeeded")
	}
	if took > 5*time.Second {
		t.Fatalf("run took %v to notice the closed connection", took)
	}
}

// A server that accepts but never answers must end the run with a stall
// error after the pipe's stall timeout.
func TestPipeFailsWhenServerIsSilent(t *testing.T) {
	addr := fakeServer(t, func(c net.Conn) {
		_, _ = io.Copy(io.Discard, c)
	})
	d, err := dialPipe(addr, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	d.stall = 200 * time.Millisecond
	err, took := runPhase(d, 1000)
	if !errors.Is(err, errStall) {
		t.Fatalf("err = %v, want a stall", err)
	}
	if took > 5*time.Second {
		t.Fatalf("stall noticed after %v", took)
	}
}

// An answer to a request that was never sent is a protocol failure.
func TestPipeRejectsUnknownID(t *testing.T) {
	addr := fakeServer(t, func(c net.Conn) {
		b, _ := wire.AppendResponse(nil, &wire.Response{Op: wire.OpGet, ID: 0xdead0001, Status: wire.StatusOK})
		_, _ = c.Write(b)
		_, _ = io.Copy(io.Discard, c)
	})
	d, err := dialPipe(addr, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	err, _ = runPhase(d, 1000)
	if err == nil {
		t.Fatal("unknown response id accepted")
	}
}
