package supervise

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/chaos"
)

func TestMsgRoundTripAndVersionSkew(t *testing.T) {
	var buf bytes.Buffer
	r := NewReporter(&buf, 10, 25)
	r.Hello(1234, 15)
	r.Heartbeat(3)
	r.Done(15)
	r.Error(errors.New("boom"))

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("reporter wrote %d lines, want 4:\n%s", len(lines), buf.String())
	}
	wantTypes := []string{MsgHello, MsgHeartbeat, MsgDone, MsgError}
	for i, ln := range lines {
		m, err := ParseMsg([]byte(ln))
		if err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if m.Type != wantTypes[i] {
			t.Fatalf("line %d type = %q, want %q", i, m.Type, wantTypes[i])
		}
		if m.Shard != "10-25" {
			t.Fatalf("line %d shard = %q, want 10-25", i, m.Shard)
		}
	}
	if m, _ := ParseMsg([]byte(lines[0])); m.PID != 1234 || m.Total != 15 {
		t.Fatalf("hello = %+v", m)
	}
	if m, _ := ParseMsg([]byte(lines[3])); m.Err != "boom" {
		t.Fatalf("error msg = %+v", m)
	}

	if _, err := ParseMsg([]byte(`{"v":99,"type":"hb"}`)); err == nil {
		t.Fatal("version-skewed message accepted")
	}
	if _, err := ParseMsg([]byte(`not json`)); err == nil {
		t.Fatal("garbage line accepted")
	}
}

func TestNilReporterIsSafe(t *testing.T) {
	var r *Reporter
	r.Hello(1, 1)
	r.Heartbeat(0)
	r.Done(1)
	r.Error(errors.New("x"))
	r.SetChaos(nil)
}

func TestChaosStallLatchesReporterSilent(t *testing.T) {
	var buf bytes.Buffer
	r := NewReporter(&buf, 0, 4)
	// Stall the third heartbeat tick (sequence key 2).
	r.SetChaos(chaos.New(&chaos.Config{
		Rules: []chaos.Rule{{Point: chaos.PointHeartbeatStall, Indices: []int{2}}},
	}))
	r.Hello(1, 4)
	for i := 0; i < 5; i++ {
		r.Heartbeat(i)
	}
	r.Done(4) // must be swallowed too: a stalled worker never reports done
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// hello + heartbeats 0 and 1; the stall fires on tick 2 and latches.
	if len(lines) != 3 {
		t.Fatalf("stalled reporter wrote %d lines, want 3:\n%s", len(lines), buf.String())
	}
	last, err := ParseMsg([]byte(lines[2]))
	if err != nil || last.Type != MsgHeartbeat || last.Done != 1 {
		t.Fatalf("last visible message = %+v (err %v), want hb done=1", last, err)
	}
}

func TestReadMessagesSkipsJunkAndCloses(t *testing.T) {
	var buf bytes.Buffer
	r := NewReporter(&buf, 0, 2)
	input := "garbage\n" + buf.String()
	r.Hello(7, 2)
	r.Done(2)
	input += buf.String() + "\n{\"v\":99,\"type\":\"hb\"}\n"

	var bad []error
	ch := readMessages(io.NopCloser(strings.NewReader(input)), func(err error) { bad = append(bad, err) })
	var got []Msg
	for m := range ch {
		got = append(got, m)
	}
	if len(got) != 2 || got[0].Type != MsgHello || got[1].Type != MsgDone {
		t.Fatalf("messages = %+v, want hello+done", got)
	}
	if len(bad) != 2 {
		t.Fatalf("bad-line callback fired %d times, want 2 (garbage + version skew): %v", len(bad), bad)
	}
}

func TestWatchStdinFiresOnEOF(t *testing.T) {
	pr, pw := io.Pipe()
	orphaned := make(chan struct{})
	WatchStdin(pr, func() { close(orphaned) })
	select {
	case <-orphaned:
		t.Fatal("orphan watchdog fired while the pipe was open")
	case <-time.After(20 * time.Millisecond):
	}
	pw.Close() // the supervisor dying closes its end
	select {
	case <-orphaned:
	case <-time.After(2 * time.Second):
		t.Fatal("orphan watchdog never fired after EOF")
	}
}

func TestParseRange(t *testing.T) {
	lo, hi, err := ParseRange("3-17")
	if err != nil || lo != 3 || hi != 17 {
		t.Fatalf("ParseRange(3-17) = %d, %d, %v", lo, hi, err)
	}
	for _, bad := range []string{"", "5", "5-5", "7-3", "-1-4", "a-b", "1-2-3x"} {
		if _, _, err := ParseRange(bad); err == nil {
			t.Errorf("ParseRange(%q) accepted", bad)
		}
	}
	for i := 0; i < 5; i++ {
		sh := Shard{Lo: i, Hi: i + 3}
		lo, hi, err := ParseRange(sh.Range())
		if err != nil || lo != sh.Lo || hi != sh.Hi {
			t.Fatalf("Range/ParseRange round trip broke for %s", sh.Range())
		}
	}
	if s := (Shard{Lo: 2, Hi: 9}).Size(); s != 7 {
		t.Fatalf("Size = %d, want 7", s)
	}
	_ = fmt.Sprintf("%v", Shard{})
}
