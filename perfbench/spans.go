package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span names. A span is recorded by the benchmark around one call into a
// public function of the program; the layer is the prefix before the dot.
const (
	spCall     = "rpc.call"    // CallAsync entry → completion callback
	spHandler  = "rpc.handler" // the server handler invocation
	spDecode   = "vision.decode"
	spMatch    = "vision.match"
	spRansac   = "vision.ransac"
	spNewCity  = "marsim.new_city"
	spDemand   = "marsim.demand"
	spGreedy   = "edge.greedy"
	spAssign   = "marsim.assign"
	spCityRun  = "marsim.run"
	spanOutDir = ".bench_build"
)

// Span ids of one socket call share its 8-byte request id: the call span
// is id*8, its handler id*8+1, and the handler's vision children follow.
// The handler learns id from the front of the request payload, which is
// how the server-side spans join the client-side call span.
const (
	offCall = iota
	offHandler
	offDecode
	offMatch
	offRansac
)

func spanID(reqID uint64, off int) uint64 { return reqID*8 + uint64(off) }

type span struct {
	id, parent uint64
	name       string
	start, end time.Duration // since the log's epoch
}

// spanLog keeps every span of a traced run in memory; they are written out
// once, when the run ends. A nil *spanLog records nothing: that is the
// untraced mode, and its only cost is the nil check.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newSpanLog() *spanLog {
	return &spanLog{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (l *spanLog) add(id, parent uint64, name string, start, end time.Time) {
	if l == nil {
		return
	}
	s := span{id: id, parent: parent, name: name, start: start.Sub(l.epoch), end: end.Sub(l.epoch)}
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

// layerTimes is the per-name aggregate of a span set: how many spans, their
// summed duration, and their summed self time (duration minus the part of
// the span its children cover).
type layerTimes struct {
	n          int
	total, own time.Duration
}

func (lt layerTimes) meanTotal() time.Duration {
	if lt.n == 0 {
		return 0
	}
	return lt.total / time.Duration(lt.n)
}

func (lt layerTimes) meanSelf() time.Duration {
	if lt.n == 0 {
		return 0
	}
	return lt.own / time.Duration(lt.n)
}

// aggregate computes per-name totals and self times.
func (l *spanLog) aggregate() map[string]layerTimes {
	l.mu.Lock()
	defer l.mu.Unlock()
	children := make(map[uint64][]int, len(l.spans))
	for i, s := range l.spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]layerTimes)
	for _, s := range l.spans {
		lt := out[s.name]
		lt.n++
		lt.total += s.end - s.start
		lt.own += s.end - s.start - covered(s, l.spans, children[s.id])
		out[s.name] = lt
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's interval.
func covered(p span, all []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		a, b := max(all[k].start, p.start), min(all[k].end, p.end)
		if b > a {
			iv = append(iv, [2]time.Duration{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum time.Duration
	var curA, curB time.Duration = -1, -1
	for _, x := range iv {
		if x[0] > curB {
			if curB > curA {
				sum += curB - curA
			}
			curA, curB = x[0], x[1]
		} else if x[1] > curB {
			curB = x[1]
		}
	}
	if curB > curA {
		sum += curB - curA
	}
	return sum
}

// writeOut stores the spans as CSV (id,parent,name,start_ns,end_ns) under
// the build directory of the checkout, one file per workload, replaced on
// every traced run.
func (l *spanLog) writeOut(workload string) error {
	if err := os.MkdirAll(spanOutDir, 0o755); err != nil {
		return fmt.Errorf("span output dir: %w", err)
	}
	path := filepath.Join(spanOutDir, "spans-"+workload+".csv")
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span output: %w", err)
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns")
	l.mu.Lock()
	for _, s := range l.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d\n", s.id, s.parent, s.name, int64(s.start), int64(s.end))
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span output: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span output: %w", err)
	}
	return nil
}
