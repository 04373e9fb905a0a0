package main

import (
	"encoding/binary"
	"strings"
	"testing"
)

func TestValueRoundTrip(t *testing.T) {
	v := putValue(nil, 42, 7, valueLen)
	if len(v) != valueLen {
		t.Fatalf("len %d", len(v))
	}
	if ver, err := checkValue(v, 42, 0, 7); err != nil || ver != 7 {
		t.Fatalf("checkValue = %d, %v", ver, err)
	}
}

func TestCheckValueRejects(t *testing.T) {
	good := putValue(nil, 42, 7, valueLen)
	corrupt := append([]byte(nil), good...)
	corrupt[40] ^= 1
	for _, c := range []struct {
		name     string
		v        []byte
		key      uint64
		min, max uint32
		want     string
	}{
		{"other key", good, 43, 0, 9, "belongs to key 42"},
		{"newer than attempted", good, 42, 0, 6, "outside"},
		{"older than acknowledged", good, 42, 8, 9, "outside"},
		{"short", good[:10], 42, 0, 9, "bytes"},
		{"filler", corrupt, 42, 0, 9, "filler"},
	} {
		_, err := checkValue(c.v, c.key, c.min, c.max)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want it to mention %q", c.name, err, c.want)
		}
	}
}

func bal(x uint64) []byte { return binary.LittleEndian.AppendUint64(nil, x) }

func TestLedgerConservation(t *testing.T) {
	l := &ledger{accounts: 3, initial: 100}
	// A transfer of 150 from account 0 wraps below zero; the wrapping sum
	// still balances.
	under := uint64(100)
	under -= 150
	for _, x := range []uint64{under, 100 + 150, 100} {
		if err := l.add(bal(x)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.verify(); err != nil {
		t.Fatalf("conserved ledger: %v", err)
	}

	l.reset()
	for _, x := range []uint64{100, 101, 100} {
		_ = l.add(bal(x))
	}
	if err := l.verify(); err == nil || !strings.Contains(err.Error(), "off by 1") {
		t.Fatalf("unbalanced ledger: err = %v", err)
	}

	l.reset()
	_ = l.add(bal(300))
	if err := l.verify(); err == nil || !strings.Contains(err.Error(), "read back 1 of 3") {
		t.Fatalf("partial read-back: err = %v", err)
	}
	if err := l.add([]byte{1, 2}); err == nil {
		t.Fatal("a 2-byte balance was accepted")
	}
}

func TestParseStatCPU(t *testing.T) {
	// pid (comm with ) and spaces) state ppid ... utime=250 stime=50
	line := []byte("123 (vot md) x) S 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 1 0")
	got, err := parseStatCPU(line)
	if err != nil || got.Seconds() != 3 {
		t.Fatalf("parseStatCPU = %v, %v; want 3s", got, err)
	}
	if _, err := parseStatCPU([]byte("garbage")); err == nil {
		t.Fatal("garbage accepted")
	}
}
