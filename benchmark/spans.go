package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// span is one timed call into a layer, recorded by the traced pass.
// Parent is the id of the enclosing span (-1 for the root); times are
// nanoseconds since the tracer started.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Trial    string `json:"trial"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
}

// tracer records spans in memory; they are written out when the workload
// ends. A nil *tracer is the untraced pass: begin and end return without
// reading the clock, so the end-to-end numbers carry no tracing cost.
type tracer struct {
	workload string
	trial    string // stamped on spans begun while a trial is running
	origin   int64
	spans    []span
	open     []int // stack of open span ids
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, origin: nowNs()}
}

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Name: name, Layer: layer,
		Workload: t.workload, Trial: t.trial, StartNs: nowNs() - t.origin,
	})
	t.open = append(t.open, id)
	return id
}

// end closes the span begin returned; spans close innermost first.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	if n := len(t.open); n == 0 || t.open[n-1] != id {
		panic("benchmark: spans closed out of order")
	}
	t.open = t.open[:len(t.open)-1]
	t.spans[id].EndNs = nowNs() - t.origin
}

// selfNs returns each span's self time: its duration minus the part its
// child spans cover. Children never overlap (the tracer is a stack), so
// the self times of a tree sum exactly to the root's duration.
func selfNs(spans []span) []int64 {
	self := make([]int64, len(spans))
	for _, s := range spans {
		d := s.EndNs - s.StartNs
		self[s.ID] += d
		if s.Parent >= 0 {
			self[s.Parent] -= d
		}
	}
	return self
}

// layerSelf sums self time per "layer/name" and per "layer".
func layerSelf(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for i, ns := range selfNs(spans) {
		out[spans[i].Layer] += ns
		out[spans[i].Layer+"/"+spans[i].Name] += ns
	}
	return out
}

// checkSpans verifies the tree is well formed: one root, every span
// closed, every child inside its parent.
func checkSpans(spans []span) error {
	roots := 0
	for _, s := range spans {
		if s.EndNs < s.StartNs {
			return fmt.Errorf("span %d (%s/%s) ends before it starts", s.ID, s.Layer, s.Name)
		}
		if s.Parent < 0 {
			roots++
			continue
		}
		if p := spans[s.Parent]; s.StartNs < p.StartNs || s.EndNs > p.EndNs {
			return fmt.Errorf("span %d (%s/%s) is not inside its parent %d", s.ID, s.Layer, s.Name, p.ID)
		}
	}
	if roots != 1 {
		return fmt.Errorf("%d root spans, want 1", roots)
	}
	return nil
}

// writeSpans writes the spans as a JSON array.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
