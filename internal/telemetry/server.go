package telemetry

import (
	"encoding/json"
	"fmt"
	"html"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// server is the live introspection endpoint: GET /snapshot returns the
// JSON view below, GET / renders it as a minimal auto-refreshing HTML
// table. All reads go through lock-free Pulse mailboxes, atomic snapshot
// pointers, and the observatory's own locks — never into live simulator
// state — so serving requests cannot perturb or race a running trial.
// The same goroutine that computes event rates doubles as the liveness
// watchdog.
type server struct {
	o     *Observatory
	ln    net.Listener
	hs    *http.Server
	stop0 chan struct{}
	wg    sync.WaitGroup
}

// snapshotJSON is the endpoint's top-level response shape.
type snapshotJSON struct {
	Schema     string      `json:"schema"`
	Run        string      `json:"run"`
	Violations uint64      `json:"violations"`
	Trials     []trialJSON `json:"trials"`
}

// trialJSON is one trial's live view.
type trialJSON struct {
	Key          string     `json:"key"`
	Run          string     `json:"run"`
	Done         bool       `json:"done"`
	VirtualNs    int64      `json:"virtual_ns"`
	Executed     uint64     `json:"executed"`
	EventsPerSec uint64     `json:"events_per_sec"`
	ActiveFlows  int        `json:"active_flows"`
	Ports        []portSnap `json:"ports,omitempty"`
}

func newServer(o *Observatory) (*server, error) {
	ln, err := net.Listen("tcp", o.opts.HTTPAddr)
	if err != nil {
		return nil, err
	}
	s := &server{o: o, ln: ln, stop0: make(chan struct{})}
	mux := http.NewServeMux()
	mux.HandleFunc("/snapshot", s.handleSnapshot)
	mux.HandleFunc("/", s.handleIndex)
	s.hs = &http.Server{Handler: mux}
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		s.hs.Serve(ln) //nolint:errcheck — Serve always returns on Close
	}()
	go s.monitor()
	fmt.Fprintf(os.Stderr, "obs: live endpoint on http://%s/\n", ln.Addr())
	return s, nil
}

func (s *server) stop() {
	close(s.stop0)
	s.hs.Close()
	s.wg.Wait()
}

// monitor samples every trial's progress each second: it feeds the
// endpoint's events/sec column and implements the liveness watchdog (a
// started trial whose cell has not returned and whose simulator executes
// nothing for livenessSec consecutive seconds is wedged, and is reported
// once).
func (s *server) monitor() {
	defer s.wg.Done()
	tick := time.NewTicker(time.Second) //tfcvet:allow simtime — the endpoint's monitor samples progress once per wall second; it reads only Pulse atomics and never feeds simulation state
	defer tick.Stop()
	for {
		select {
		case <-s.stop0:
			return
		case <-tick.C:
		}
		for _, t := range s.o.snapshotTrials() {
			m := &t.mon
			_, exec := t.pulse.Load()
			delta := exec - m.lastExec
			if !m.seen {
				delta = 0
			}
			stallFlag := false
			if !t.done.Load() && m.seen && delta == 0 && exec > 0 {
				m.stalled++
				if m.stalled >= livenessSec && !m.flagged {
					m.flagged = true
					stallFlag = true
				}
			} else {
				m.stalled = 0
			}
			m.lastExec, m.seen = exec, true
			t.rate.Store(delta)
			if stallFlag && s.o.opts.Watchdogs {
				s.o.violation(t, "liveness",
					fmt.Sprintf("no events executed for %ds of wall time (executed=%d)",
						livenessSec, exec))
			}
		}
	}
}

// monitorState is the monitor goroutine's own bookkeeping of one trial.
type monitorState struct {
	lastExec uint64
	seen     bool
	stalled  int
	flagged  bool
}

// summary is the trial's endpoint row. Once the trial is done it is
// final, which is what FinishRun keeps of a trial it lets go of.
func (t *Trial) summary() trialJSON {
	vt, exec := t.pulse.Load()
	tj := trialJSON{
		Key:          t.key,
		Run:          t.run,
		Done:         t.done.Load(),
		VirtualNs:    int64(vt),
		Executed:     exec,
		EventsPerSec: t.rate.Load(),
	}
	if snap := t.snap.Load(); snap != nil {
		tj.ActiveFlows = snap.ActiveFlows
		tj.Ports = snap.Ports
	}
	return tj
}

// snapshot assembles the endpoint response: the rows of finished trials
// plus those of the trials still running, sorted by run and key.
func (s *server) snapshot() snapshotJSON {
	s.o.mu.Lock()
	out := snapshotJSON{
		Schema:     "tfcsim-obs-v1",
		Run:        s.o.run,
		Violations: s.o.Violations(),
		Trials:     append([]trialJSON(nil), s.o.finished...),
	}
	live := append([]*Trial(nil), s.o.trials...)
	s.o.mu.Unlock()
	for _, t := range live {
		out.Trials = append(out.Trials, t.summary())
	}
	sort.Slice(out.Trials, func(i, j int) bool {
		a, b := &out.Trials[i], &out.Trials[j]
		if a.Run != b.Run {
			return a.Run < b.Run
		}
		return a.Key < b.Key
	})
	return out
}

func (s *server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(s.snapshot()) //nolint:errcheck — client gone is fine
}

func (s *server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	snap := s.snapshot()
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprintf(w, `<!doctype html><html><head><meta http-equiv="refresh" content="1">
<title>tfcsim observatory</title>
<style>body{font:13px monospace;margin:1em}table{border-collapse:collapse}
td,th{border:1px solid #999;padding:2px 8px;text-align:right}
th{background:#eee}td:first-child{text-align:left}</style></head><body>
<h3>tfcsim observatory — run %s — %d watchdog violation(s)</h3>
<table><tr><th>trial</th><th>state</th><th>virtual ms</th><th>events</th>
<th>ev/s</th><th>flows</th><th>max queue B</th></tr>
`, html.EscapeString(snap.Run), snap.Violations)
	for _, t := range snap.Trials {
		state := "running"
		if t.Done {
			state = "done"
		}
		var maxQ int64
		for _, p := range t.Ports {
			if p.QueueBytes > maxQ {
				maxQ = p.QueueBytes
			}
		}
		fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%.2f</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td></tr>\n",
			html.EscapeString(t.Run+"/"+t.Key), state, float64(t.VirtualNs)/1e6,
			t.Executed, t.EventsPerSec, t.ActiveFlows, maxQ)
	}
	fmt.Fprint(w, "</table></body></html>\n")
}
