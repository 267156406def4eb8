package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public entry point it drives.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 for a top-level span
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"` // since the process started
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out once the run ends.
// A disabled tracer records nothing; untraced runs use one, so the
// end-to-end numbers are measured without tracing.
type tracer struct {
	enabled  bool
	workload string
	spans    []span
	open     []int // indexes of the spans not yet ended, innermost last
}

// begin opens a span as a child of the innermost open one.
func (t *tracer) begin(name, layer string) {
	if !t.enabled {
		return
	}
	parent := 0
	if len(t.open) > 0 {
		parent = t.spans[t.open[len(t.open)-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Layer: layer,
		Workload: t.workload, StartNS: int64(time.Since(procStart)),
	})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span.
func (t *tracer) end() {
	if !t.enabled {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].EndNS = int64(time.Since(procStart))
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
