package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"
)

// span is one timed call into a layer of the program, recorded from the
// benchmark's side of the call. Parent is the ID of the span the call was
// made under (0 for a top-level span).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.EndNS - s.StartNS }

// tracer keeps spans in memory until the run writes them out. Calls the
// benchmark makes from its own code pass their parent explicitly; calls
// the program makes into a wrapped interface (a partitioner, a feature
// source) are parented under Current, which the driving code sets before
// each call into the program.
type tracer struct {
	mu      sync.Mutex
	spans   []span
	current int
}

// start opens a span under parent and returns its ID.
func (t *tracer) start(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNS: time.Now().UnixNano()})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Now().UnixNano()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// add records an already-finished span (one the program published itself)
// and returns its ID.
func (t *tracer) add(name string, parent int, startNS, endNS int64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNS: startNS, EndNS: endNS})
	return len(t.spans)
}

// setCurrent makes id the parent of spans opened by wrapped interfaces.
func (t *tracer) setCurrent(id int) {
	t.mu.Lock()
	t.current = id
	t.mu.Unlock()
}

// startUnderCurrent opens a span under the current parent.
func (t *tracer) startUnderCurrent(name string) int {
	t.mu.Lock()
	parent := t.current
	t.mu.Unlock()
	return t.start(name, parent)
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.Clone(t.spans)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval covered by its children. Children that overlap each other
// (concurrent calls) are counted once, and a child that outlives its
// parent is clipped to the parent's interval.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - coveredNS(s, children[s.ID])
	}
	return self
}

// coveredNS is the length of the union of the children's intervals,
// clipped to the parent's interval.
func coveredNS(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	slices.SortFunc(ivs, func(a, b iv) int {
		switch {
		case a.lo < b.lo:
			return -1
		case a.lo > b.lo:
			return 1
		}
		return 0
	})
	var covered, curLo, curHi int64
	open := false
	for _, v := range ivs {
		if open && v.lo <= curHi {
			curHi = max(curHi, v.hi)
			continue
		}
		if open {
			covered += curHi - curLo
		}
		curLo, curHi, open = v.lo, v.hi, true
	}
	if open {
		covered += curHi - curLo
	}
	return covered
}

// layerTotals is the self time and call count of each span name beneath
// one root span.
type layerTotals struct {
	selfNS map[string]int64
	calls  map[string]int
}

// perRoot totals the spans beneath every span named root (the root's own
// self time included). Entry i describes the i-th root in recording order.
func perRoot(spans []span, root string) []layerTotals {
	self := selfTimes(spans)
	byID := make(map[int]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	rootOf := func(s span) (int, bool) {
		for {
			if s.Name == root {
				return s.ID, true
			}
			if s.Parent == 0 {
				return 0, false
			}
			s = byID[s.Parent]
		}
	}
	var out []layerTotals
	index := make(map[int]int)
	for _, s := range spans {
		if s.Name == root {
			index[s.ID] = len(out)
			out = append(out, layerTotals{selfNS: map[string]int64{}, calls: map[string]int{}})
		}
	}
	for _, s := range spans {
		rid, ok := rootOf(s)
		if !ok {
			continue
		}
		lt := out[index[rid]]
		lt.selfNS[s.Name] += self[s.ID]
		lt.calls[s.Name]++
	}
	return out
}

// writeTrace writes the spans and the run's fingerprint as one JSON file.
func writeTrace(path string, fp fingerprint, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Fingerprint fingerprint `json:"fingerprint"`
		Spans       []span      `json:"spans"`
	}{fp, spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
