package exp

import (
	"context"
	"fmt"

	"tfcsim/internal/runner"
	"tfcsim/internal/telemetry"
)

// cell is what Sweep needs of a runner config: every config embeds
// TopoConfig, so a pointer to it reaches the trial's seed and telemetry.
type cell[C any] interface {
	*C
	topo() *TopoConfig
}

func (c *TopoConfig) topo() *TopoConfig { return c }

// Sweep is the one fan-out of the evaluation: it runs run on every cell as
// an independent trial over p's workers and returns the results in cell
// order. Every cell runs with the pool's Seed, so cells that differ only
// in configuration share a workload, and with the telemetry trial
// col.Trial(key(cell)) (nil, like col, when telemetry is off). The output
// is identical at any parallelism. Keys must be unique within a run: they
// are the merge order of trace and metrics.
// The trial flushes as its cell returns, which tells the observatory the
// trial is done; its virtual clock has stopped, so export would close
// open spans at the same instant.
func Sweep[C, R any, PC cell[C]](ctx context.Context, p *runner.Pool, col *telemetry.Collector,
	cells []C, key func(C) string, run func(C) R) ([]R, error) {
	rs, _, err := runner.Map(ctx, p, len(cells), func(i int, seed int64) (R, error) {
		c := cells[i]
		t := PC(&c).topo()
		t.Seed = seed
		t.Telemetry = col.Trial(key(c))
		r := run(c)
		t.Telemetry.Flush()
		return r, nil
	})
	return rs, err
}

// PerProto returns base once per protocol with Proto set: the cells of a
// protocol comparison.
func PerProto[C any, PC cell[C]](base C, protos []Proto) []C {
	cells := make([]C, len(protos))
	for i, p := range protos {
		cells[i] = base
		PC(&cells[i]).topo().Proto = p
	}
	return cells
}

// ProtoKey keys a cell by its protocol.
func ProtoKey[C any, PC cell[C]](c C) string { return string(PC(&c).topo().Proto) }

// IncastGrid returns the (protocol, senders) cells of an incast sweep,
// protocols outer.
func IncastGrid(base IncastConfig, protos []Proto, senders []int) []IncastConfig {
	var cells []IncastConfig
	for _, c := range PerProto(base, protos) {
		for _, n := range senders {
			c.Senders = n
			cells = append(cells, c)
		}
	}
	return cells
}

// IncastKey keys an incast cell as "<proto>-n<senders>".
func IncastKey(c IncastConfig) string { return fmt.Sprintf("%s-n%03d", c.Proto, c.Senders) }
