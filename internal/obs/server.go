package obs

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
// The same goroutine that computes event rates doubles as the
// shard-liveness watchdog.
type server struct {
	o     *Observatory
	ln    net.Listener
	hs    *http.Server
	stop0 chan struct{}
	wg    sync.WaitGroup
}

// SnapshotJSON is the endpoint's top-level response shape.
type SnapshotJSON struct {
	Schema     string      `json:"schema"`
	Run        string      `json:"run"`
	Violations uint64      `json:"violations"`
	Trials     []TrialJSON `json:"trials"`
}

// TrialJSON is one trial's live view.
type TrialJSON struct {
	Key          string      `json:"key"`
	Run          string      `json:"run"`
	Done         bool        `json:"done"`
	VirtualNs    int64       `json:"virtual_ns"`
	Executed     uint64      `json:"executed"`
	EventsPerSec uint64      `json:"events_per_sec"`
	ActiveFlows  int         `json:"active_flows"`
	Shards       []ShardJSON `json:"shards,omitempty"`
	Group        *GroupJSON  `json:"group,omitempty"`
	Ports        []PortSnap  `json:"ports,omitempty"`
}

// ShardJSON is one engine shard's live progress.
type ShardJSON struct {
	VirtualNs int64  `json:"virtual_ns"`
	Executed  uint64 `json:"executed"`
}

// GroupJSON is the sharded engine's self-profile, included once a trial
// finishes (the underlying counters are not synchronized mid-run).
type GroupJSON struct {
	Shards        int    `json:"shards"`
	LookaheadNs   int64  `json:"lookahead_ns"`
	Epochs        uint64 `json:"epochs"`
	Ties          uint64 `json:"ties"`
	InstantEvents uint64 `json:"instant_events"`
	MailDelivered uint64 `json:"mail_delivered"`
	MailPeak      int    `json:"mail_peak"`
	HeapDispatch  uint64 `json:"heap_dispatch"`
	LaneDispatch  uint64 `json:"lane_dispatch"`
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
// endpoint's events/sec column and implements the shard-liveness
// watchdog (a started, unfinished trial whose engines execute nothing
// for livenessSec consecutive seconds is wedged — likely a barrier
// deadlock — and is reported once).
func (s *server) monitor() {
	defer s.wg.Done()
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for {
		select {
		case <-s.stop0:
			return
		case <-tick.C:
		}
		for _, to := range s.o.snapshotTrials() {
			_, exec := to.progress()
			delta := exec - to.lastExec
			if !to.seen {
				delta = 0
			}
			stallFlag := false
			if !to.done.Load() && to.seen && delta == 0 && exec > 0 {
				to.stalled++
				if to.stalled >= livenessSec && !to.flagged {
					to.flagged = true
					stallFlag = true
				}
			} else {
				to.stalled = 0
			}
			to.lastExec, to.seen = exec, true
			to.rate.Store(delta)
			if stallFlag && s.o.opts.Watchdogs {
				s.o.violation(to, "shard-liveness",
					fmt.Sprintf("no events executed for %ds of wall time (executed=%d)",
						livenessSec, exec))
			}
		}
	}
}

// progress reads the trial's lock-free pulse mailboxes: the control
// simulator's virtual time and the total executed event count across
// control and shards.
func (to *trialObs) progress() (virtualNs int64, executed uint64) {
	if to.pulse != nil {
		t, e := to.pulse.Load()
		virtualNs, executed = int64(t), e
	}
	for _, p := range to.shardPulses {
		_, e := p.Load()
		executed += e
	}
	return virtualNs, executed
}

// summary is the trial's endpoint row. Once the trial is done it is
// final, which is what FinishRun keeps of a trial it lets go of.
func (to *trialObs) summary() TrialJSON {
	vt, exec := to.progress()
	tj := TrialJSON{
		Key:          to.key,
		Run:          to.run,
		Done:         to.done.Load(),
		VirtualNs:    vt,
		Executed:     exec,
		EventsPerSec: to.rate.Load(),
	}
	for _, p := range to.shardPulses {
		t, e := p.Load()
		tj.Shards = append(tj.Shards, ShardJSON{VirtualNs: int64(t), Executed: e})
	}
	if snap := to.snap.Load(); snap != nil {
		tj.ActiveFlows = snap.ActiveFlows
		tj.Ports = snap.Ports
	}
	if tj.Done && to.group != nil {
		gs := to.group.Stats()
		gj := &GroupJSON{
			Shards: gs.Shards, LookaheadNs: int64(gs.Lookahead),
			Epochs: gs.Epochs, Ties: gs.Ties,
			InstantEvents: gs.InstantEvents,
			MailDelivered: gs.MailDelivered, MailPeak: gs.MailPeak,
		}
		for _, sh := range gs.PerShard {
			gj.HeapDispatch += sh.HeapDispatch
			gj.LaneDispatch += sh.LaneDispatch
		}
		tj.Group = gj
	}
	return tj
}

// snapshot assembles the endpoint response: the rows of finished trials
// plus those of the trials still running, sorted by run and key.
func (s *server) snapshot() SnapshotJSON {
	s.o.mu.Lock()
	out := SnapshotJSON{
		Schema:     "tfcsim-obs-v1",
		Run:        s.o.run,
		Violations: s.o.Violations(),
		Trials:     append([]TrialJSON(nil), s.o.finished...),
	}
	live := append([]*trialObs(nil), s.o.trials...)
	s.o.mu.Unlock()
	for _, to := range live {
		out.Trials = append(out.Trials, to.summary())
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
<th>ev/s</th><th>flows</th><th>shards</th><th>max queue B</th></tr>
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
		shards := 1
		if len(t.Shards) > 0 {
			shards = len(t.Shards)
		}
		fmt.Fprintf(w, "<tr><td>%s</td><td>%s</td><td>%.2f</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td><td>%d</td></tr>\n",
			html.EscapeString(t.Run+"/"+t.Key), state, float64(t.VirtualNs)/1e6,
			t.Executed, t.EventsPerSec, t.ActiveFlows, shards, maxQ)
	}
	fmt.Fprint(w, "</table></body></html>\n")
}
