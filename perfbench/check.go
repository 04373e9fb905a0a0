package main

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Output checks shared by the kv workloads.
//
// A versioned value is [key u64 | version u32 | filler], the filler a pure
// function of key, version and position, so a GET answer proves which write
// produced it: a torn, misrouted or stale-beyond-reason value fails.

const valueLen = 64

// putValue appends the n-byte value that PUT version ver of key writes.
func putValue(dst []byte, key uint64, ver uint32, n int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, key)
	dst = binary.LittleEndian.AppendUint32(dst, ver)
	for i := 12; i < n; i++ {
		dst = append(dst, fill(key, ver, i))
	}
	return dst
}

func fill(key uint64, ver uint32, i int) byte {
	return byte(key*31 + uint64(ver)*7 + uint64(i))
}

// checkValue verifies that v is a value putValue wrote for key, at a version
// in [minVer, maxVer], and returns that version.
func checkValue(v []byte, key uint64, minVer, maxVer uint32) (uint32, error) {
	if len(v) != valueLen {
		return 0, fmt.Errorf("key %d: value of %d bytes, want %d", key, len(v), valueLen)
	}
	if got := binary.LittleEndian.Uint64(v); got != key {
		return 0, fmt.Errorf("key %d: value belongs to key %d", key, got)
	}
	ver := binary.LittleEndian.Uint32(v[8:])
	if ver < minVer || ver > maxVer {
		return ver, fmt.Errorf("key %d: version %d outside [%d, %d]", key, ver, minVer, maxVer)
	}
	for i := 12; i < len(v); i++ {
		if v[i] != fill(key, ver, i) {
			return ver, fmt.Errorf("key %d version %d: filler corrupt at byte %d", key, ver, i)
		}
	}
	return ver, nil
}

// ledger is the conservation check of the transfer workload: every account
// starts at the same balance and a transfer adds −x to one and +x to
// another in one transaction, so the wrapping sum of all balances is fixed.
type ledger struct {
	accounts int
	initial  uint64
	sum      atomic.Uint64 // wrapping sum of the balances read back
	read     atomic.Int64  // balances read back
}

// want is the sum every complete read-back must reach.
func (l *ledger) want() uint64 { return uint64(l.accounts) * l.initial }

// add books one balance read back (an 8-byte little-endian value).
func (l *ledger) add(v []byte) error {
	if len(v) != 8 {
		return fmt.Errorf("balance of %d bytes, want 8", len(v))
	}
	l.sum.Add(binary.LittleEndian.Uint64(v))
	l.read.Add(1)
	return nil
}

// reset clears the read-back for another pass.
func (l *ledger) reset() {
	l.sum.Store(0)
	l.read.Store(0)
}

// verify reports whether the read-back covered every account and summed to
// the initial total.
func (l *ledger) verify() error {
	if n := l.read.Load(); n != int64(l.accounts) {
		return fmt.Errorf("read back %d of %d balances", n, l.accounts)
	}
	if got := l.sum.Load(); got != l.want() {
		return fmt.Errorf("balance sum %d, want %d (off by %d)", got, l.want(), int64(got-l.want()))
	}
	return nil
}
