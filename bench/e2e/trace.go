package main

// In-memory span tracer. Spans are recorded from the benchmark's own files
// around calls into each layer's public functions (spans inside the
// program are a later change), kept in memory for the whole run and
// written as one JSON file when the run ends. A layer's self time is its
// span minus the part of that interval its child spans cover.

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"skynet/internal/detect"
	"skynet/internal/tensor"
)

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch; Parent is 0 for a root; Op ties the spans of one frame, request or
// tracking step together (-1 when the work serves several ops, as a
// micro-batched forward does).
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the tracer's memory; later spans are counted, not kept.
const maxSpans = 1 << 20

// tracer collects spans. A nil tracer, or one switched off, records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	on      atomic.Bool
	epoch   time.Time
	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)}
	t.on.Store(true)
	return t
}

// begin opens a span and returns its id (0 when not recording).
func (t *tracer) begin(name string, parent int32, op int64) int32 {
	if t == nil || !t.on.Load() {
		return 0
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// end closes the span begin returned.
func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// snapshot copies the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start && s.End != 0 {
			out = append(out, s)
		}
	}
	return out
}

// spanTimes holds, per span name, every span's duration and self time in
// milliseconds, in recording order.
type spanTimes struct {
	total map[string][]float64
	self  map[string][]float64
}

// analyse computes durations and self times. A span's self time is its
// duration minus the union of its children's intervals clipped to it, so
// overlapping (parallel) children are not counted twice.
func analyse(spans []span) spanTimes {
	type iv struct{ lo, hi int64 }
	kids := map[int32][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], iv{s.Start, s.End})
		}
	}
	st := spanTimes{total: map[string][]float64{}, self: map[string][]float64{}}
	for _, s := range spans {
		dur := s.End - s.Start
		covered := int64(0)
		ivs := kids[s.ID]
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		cur := s.Start
		for _, k := range ivs {
			lo, hi := max(k.lo, cur), min(k.hi, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		st.total[s.Name] = append(st.total[s.Name], float64(dur)/1e6)
		st.self[s.Name] = append(st.self[s.Name], float64(dur-covered)/1e6)
	}
	return st
}

// traceFile is the on-disk form of one traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Dropped  int64  `json:"dropped_spans"`
	Spans    []span `json:"spans"`
}

// write stores the spans under dir and returns the file's path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s-seed%d.json", workload, seed))
	t.mu.Lock()
	dropped := t.dropped
	t.mu.Unlock()
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Dropped: dropped, Spans: t.snapshot()})
	if err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("trace: %w", err)
	}
	return path, nil
}

// tracedModel wraps a detect.Model so that every forward pass — whoever
// calls it: the executor's inference stage, a server replica, a probe —
// records a span. The probe that wants the forward nested under its own
// span stores that span's id in parent first.
type tracedModel struct {
	inner  detect.Model
	tr     *tracer
	name   string
	parent atomic.Int32
}

// Forward implements detect.Model.
func (m *tracedModel) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	id := m.tr.begin(m.name, m.parent.Load(), -1)
	out := m.inner.Forward(x, train)
	m.tr.end(id)
	return out
}
