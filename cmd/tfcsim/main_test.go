package main

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestCancelledRunCleansUp cancels `tfcsim all` mid-run, as Ctrl-C does,
// and checks the run fails through cli's deferred clean-ups: the -http
// listener is closed and the -out file holds only whole sections.
func TestCancelledRunCleansUp(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	out := filepath.Join(t.TempDir(), "out.txt")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan int, 1)
	go func() {
		done <- cli(ctx, []string{"all", "-j", "1", "-http", addr, "-out", out}, io.Discard)
	}()

	// Wait until the first experiment's section is in the -out file (so
	// the cancellation lands mid-run), checking the endpoint is up.
	const footer = "s wall --\n\n"
	deadline := time.Now().Add(2 * time.Minute)
	for {
		if b, _ := os.ReadFile(out); strings.HasSuffix(string(b), footer) {
			break
		}
		select {
		case code := <-done:
			t.Fatalf("cli returned %d before the first experiment finished", code)
		case <-time.After(20 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("no experiment finished in time")
		}
	}
	resp, err := http.Get("http://" + addr + "/snapshot")
	if err != nil {
		t.Fatalf("endpoint not serving during the run: %v", err)
	}
	resp.Body.Close()

	cancel()
	select {
	case code := <-done:
		if code != 1 {
			t.Errorf("cancelled run exited %d, want 1", code)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("cli did not return after cancellation")
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Error("-http listener still accepting after the cancelled run returned")
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	text := string(b)
	var heads, foots int
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "== ") {
			heads++
		}
		if strings.HasSuffix(line, "s wall --") {
			foots++
		}
	}
	if heads == 0 || heads != foots || !strings.HasSuffix(text, footer) {
		t.Errorf("-out file holds %d section headers and %d footers; tail:\n%s",
			heads, foots, text[max(0, len(text)-200):])
	}
}

// TestNegativeCountFlagsRejected: a negative -j or -spans is a
// usage error (exit 2) reported before any trial runs, so nothing reaches
// stdout or the -trace file.
func TestNegativeCountFlagsRejected(t *testing.T) {
	trace := filepath.Join(t.TempDir(), "t.json")
	for _, args := range [][]string{
		{"run", "fig07", "-j", "-3"},
		{"run", "fig07", "-spans", "-1", "-trace", trace},
		{"all", "-j", "-1"},
	} {
		var stdout bytes.Buffer
		if code := cli(context.Background(), args, &stdout); code != 2 {
			t.Errorf("tfcsim %s exited %d, want 2", strings.Join(args, " "), code)
		}
		if stdout.Len() != 0 {
			t.Errorf("tfcsim %s ran: stdout %q", strings.Join(args, " "), stdout.String())
		}
	}
	if _, err := os.Stat(trace); err == nil {
		t.Error("-trace file written by a rejected run")
	}
}
