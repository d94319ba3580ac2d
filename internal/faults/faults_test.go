package faults

import (
	"bytes"
	"errors"
	"net"
	"os"
	"testing"
	"time"
)

// pipePair returns a wrapped client end and the raw server end of an
// in-memory connection, with an echo loop serving the raw end.
func pipePair(t *testing.T, in *Injector, label string) (net.Conn, net.Conn) {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() { a.Close(); b.Close() })
	go func() {
		buf := make([]byte, 64)
		for {
			n, err := b.Read(buf)
			if err != nil {
				return
			}
			if _, err := b.Write(buf[:n]); err != nil {
				return
			}
		}
	}()
	return in.WrapConn(label, a), b
}

func TestDropAfterN(t *testing.T) {
	in := New(1, &Rule{Op: Drop, Target: "srv0", After: 2, Count: 1})
	c, _ := pipePair(t, in, "srv0")
	// Ops 1 and 2 (one write + one read) pass; op 3 drops.
	if _, err := c.Write([]byte("one")); err != nil {
		t.Fatalf("write 1: %v", err)
	}
	buf := make([]byte, 8)
	if _, err := c.Read(buf); err != nil {
		t.Fatalf("read 1: %v", err)
	}
	if _, err := c.Write([]byte("two")); !errors.Is(err, ErrDropped) {
		t.Fatalf("op 3 err = %v, want ErrDropped", err)
	}
	// The connection is genuinely dead, not just erroring once.
	if _, err := c.Write([]byte("three")); err == nil {
		t.Fatal("write on dropped connection succeeded")
	}
}

func TestLabelMatching(t *testing.T) {
	in := New(1, &Rule{Op: Drop, Target: "srv1"})
	c, _ := pipePair(t, in, "srv2")
	if _, err := c.Write([]byte("x")); err != nil {
		t.Fatalf("rule for srv1 hit srv2: %v", err)
	}
	glob := New(1, &Rule{Op: Drop, Target: "srv*"})
	g, _ := pipePair(t, glob, "srv7")
	if _, err := g.Write([]byte("x")); !errors.Is(err, ErrDropped) {
		t.Fatalf("glob srv* missed srv7: %v", err)
	}
}

func TestDelaySlowsReads(t *testing.T) {
	const lag = 80 * time.Millisecond
	in := New(1, &Rule{Op: Delay, Delay: lag})
	c, _ := pipePair(t, in, "srv0")
	start := time.Now()
	if _, err := c.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	if _, err := c.Read(buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 2*lag {
		t.Fatalf("two delayed ops took %v, want >= %v", elapsed, 2*lag)
	}
}

func TestDelayRespectsDeadline(t *testing.T) {
	in := New(1, &Rule{Op: Delay, Delay: 10 * time.Second})
	c, _ := pipePair(t, in, "srv0")
	c.SetDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err := c.Write([]byte("ping"))
	if err == nil {
		buf := make([]byte, 8)
		_, err = c.Read(buf)
	}
	if err == nil {
		t.Fatal("delayed past deadline yet no error")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatalf("deadline-bounded delay slept %v", time.Since(start))
	}
}

func TestCorruptFlipsBytes(t *testing.T) {
	in := New(1, &Rule{Op: Corrupt})
	a, raw := net.Pipe()
	t.Cleanup(func() { a.Close(); raw.Close() })
	c := in.WrapConn("srv0", a)
	payload := []byte("payload-bytes")
	errCh := make(chan error, 1)
	got := make([]byte, len(payload))
	go func() {
		_, err := raw.Read(got)
		errCh <- err
	}()
	if _, err := c.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, payload) {
		t.Fatal("corrupted write arrived intact")
	}
}

func TestBlackholeReadHitsDeadline(t *testing.T) {
	in := New(1, &Rule{Op: Blackhole})
	c, _ := pipePair(t, in, "srv0")
	c.SetReadDeadline(time.Now().Add(60 * time.Millisecond))
	start := time.Now()
	_, err := c.Read(make([]byte, 8))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("blackholed read err = %v, want deadline exceeded", err)
	}
	if time.Since(start) < 50*time.Millisecond {
		t.Fatal("blackholed read returned before the deadline")
	}
}

func TestPartitionAndHeal(t *testing.T) {
	in := New(1)
	rule := in.Add(&Rule{Op: Partition, Target: "srv0"})
	c, _ := pipePair(t, in, "srv0")
	if _, err := c.Write([]byte("x")); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned write err = %v", err)
	}
	rule.Disarm()
	// Healing lets a NEW connection through (the old one was torn
	// down, as with a real partition).
	c2, _ := pipePair(t, in, "srv0")
	if _, err := c2.Write([]byte("x")); err != nil {
		t.Fatalf("healed partition still blocks: %v", err)
	}
	if rule.Fired() != 1 {
		t.Fatalf("rule fired %d times, want 1", rule.Fired())
	}
}

func TestProbDeterminism(t *testing.T) {
	fire := func(seed int64) []bool {
		in := New(seed, &Rule{Op: Corrupt, Prob: 0.5})
		out := make([]bool, 64)
		for i := range out {
			out[i] = in.decide("x") != nil
		}
		return out
	}
	a, b := fire(7), fire(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at op %d", i)
		}
	}
	diff := false
	for i, v := range fire(8) {
		if v != a[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical firing sequences (suspicious)")
	}
	n := 0
	for _, v := range a {
		if v {
			n++
		}
	}
	if n == 0 || n == len(a) {
		t.Fatalf("prob=0.5 fired %d/%d times", n, len(a))
	}
}

func TestNilInjectorPassthrough(t *testing.T) {
	var in *Injector
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	if got := in.WrapConn("x", a); got != a {
		t.Fatal("nil injector wrapped the conn")
	}
	if in.Wrapper("x") != nil {
		t.Fatal("nil injector returned a wrapper")
	}
}
