package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"votm/wire"
)

// srvNice is the niceness votmd runs at.
const srvNice = 5

// votmd is one child votmd process.
type votmd struct {
	bin     string
	args    []string
	addr    string
	env     []string
	cmd     *exec.Cmd
	started time.Time
	exited  chan struct{}
	werr    error // cmd.Wait result, readable after exited
	log     *tailBuffer
}

// tailBuffer keeps the last bytes a child wrote to stderr, for error reports.
type tailBuffer struct {
	mu  sync.Mutex
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if n := len(t.buf); n > 8<<10 {
		t.buf = append(t.buf[:0], t.buf[n-4<<10:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// freeAddr asks the kernel for an unused loopback port.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	return addr, ln.Close()
}

// startVotmd launches bin with args on a fresh loopback port and waits until
// it answers a request (GET of key 0; a NOT_FOUND answer counts).
func startVotmd(bin string, args []string, procs int) (*votmd, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	v := &votmd{bin: bin, args: args, addr: addr, log: &tailBuffer{},
		env: append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(procs))}
	if _, err := v.start(); err != nil {
		return nil, err
	}
	return v, nil
}

func (v *votmd) flags() []string { return append([]string{"-addr", v.addr}, v.args...) }

// start execs the process and waits for its first answer.
func (v *votmd) start() (time.Duration, error) {
	// votmd runs at a lower scheduling priority (nice 5) than the generator:
	// on a host with as many CPUs as the server has Ps, an open-loop sender
	// that wakes to a busy CPU would otherwise wait a scheduler slice
	// (milliseconds) to send, and its lateness would set the measured tail.
	v.cmd = exec.Command("nice", append([]string{"-n", strconv.Itoa(srvNice), v.bin}, v.flags()...)...)
	v.cmd.Env = v.env
	// If the benchmark dies, the kernel kills the child with it.
	v.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	v.cmd.Stdout = v.log
	v.cmd.Stderr = v.log
	v.exited = make(chan struct{})
	v.started = time.Now()
	if err := v.cmd.Start(); err != nil {
		return 0, fmt.Errorf("start votmd: %w", err)
	}
	go func() {
		v.werr = v.cmd.Wait()
		close(v.exited)
	}()
	deadline := v.started.Add(60 * time.Second)
	for {
		if err := probe(v.addr); err == nil {
			return time.Since(v.started), nil
		}
		select {
		case <-v.exited:
			return 0, fmt.Errorf("votmd exited before serving (%v): %s", v.werr, v.log)
		default:
		}
		if time.Now().After(deadline) {
			v.kill()
			return 0, fmt.Errorf("votmd not serving after 60s: %s", v.log)
		}
		// A short nanosleep: the runtime's timers would round the poll up to
		// a millisecond, a third of a restart without durability.
		ts := syscall.NsecToTimespec(int64(100 * time.Microsecond))
		_ = syscall.Nanosleep(&ts, nil)
	}
}

// kill SIGKILLs the process and waits for it to be reaped.
func (v *votmd) kill() {
	if v.cmd == nil || v.cmd.Process == nil {
		return
	}
	select {
	case <-v.exited:
		return
	default:
	}
	_ = v.cmd.Process.Signal(syscall.SIGKILL)
	<-v.exited
}

// restart SIGKILLs the process and starts a new one with the same flags,
// returning the time from the new exec to its first answer.
func (v *votmd) restart() (time.Duration, error) {
	v.kill()
	return v.start()
}

// alive reports an error if the process has exited.
func (v *votmd) alive() error {
	select {
	case <-v.exited:
		return fmt.Errorf("votmd exited (%v): %s", v.werr, v.log)
	default:
		return nil
	}
}

// clkTck is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux fixes it
// at 100 on every architecture Go supports.
const clkTck = 100

// cpu returns the process's user+system CPU time so far.
func (v *votmd) cpu() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", v.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	return parseStatCPU(b)
}

// parseStatCPU extracts utime+stime from a /proc/<pid>/stat line.
func parseStatCPU(b []byte) (time.Duration, error) {
	i := bytes.LastIndexByte(b, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat line")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return time.Duration(ut+st) * time.Second / clkTck, nil
}

// probe sends one GET on a fresh connection and waits briefly for any
// answer.
func probe(addr string) error {
	c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond)
	if err != nil {
		return err
	}
	defer c.Close()
	_ = c.SetDeadline(time.Now().Add(2 * time.Second))
	frame, err := wire.AppendRequest(nil, &wire.Request{Op: wire.OpGet, ID: 1, Key: 0})
	if err != nil {
		return err
	}
	if _, err := c.Write(frame); err != nil {
		return err
	}
	var hdr [4]byte
	if _, err := io.ReadFull(c, hdr[:]); err != nil {
		return err
	}
	body := make([]byte, binary.LittleEndian.Uint32(hdr[:]))
	if _, err := io.ReadFull(c, body); err != nil {
		return err
	}
	resp, err := wire.ParseResponse(body)
	if err != nil {
		return err
	}
	defer resp.Release()
	if resp.Status != wire.StatusOK && resp.Status != wire.StatusNotFound {
		return resp.Err()
	}
	return nil
}
