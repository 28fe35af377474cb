package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"marnet/internal/core"
	"marnet/internal/obs"
	"marnet/internal/rpc"
)

const (
	// budget is the paper's motion-to-photon loop (§III-B): every call
	// carries it as its deadline, and an answer counts as a hit only if it
	// arrives inside it.
	budget = 75 * time.Millisecond
	// callPrio puts calls in the first admission tier CoDel may shed from
	// (tier 0 is only ever tail-capped), so under overload the queue-delay
	// shedder can act, not just the tail cap.
	callPrio = core.PrioNoDiscard
	// clientRate is the declared request-stream rate and congestion start
	// budget, in bit/s: far above any offered byte rate here (match-closed
	// sends about 31 Mb/s), so the client's own stream rate is never what
	// sheds.
	clientRate = 400e6
	// setupRounds is how many times a socket workload builds its harness;
	// setup_s is their median and the last one is measured.
	setupRounds = 31
)

// benchKey seals every request and response (AES-GCM on both ends).
var benchKey = []byte("marnet-perfbench-aead-key-32byte")

// callIO is what a socket workload sends and how it checks the answer.
// Every request starts with its 8-byte request id.
type callIO struct {
	method uint8
	size   int // request payload bytes, id included
	inputs int
	fill   func(dst []byte, id uint64, in int)
	// check reports whether resp is the right answer to the request that
	// fill built for input in; aux is a workload-specific figure summed
	// over correct answers (match: inliers, matches).
	check func(in int, req, resp []byte) (ok bool, aux [2]int64)
}

// tracing is the instrumentation of a traced run's clients: client i gets
// tracers[i] and its budget tracker registers its histograms in regs[i].
type tracing struct {
	tracers []*obs.Tracer
	regs    []*obs.Registry
}

func newTracing(n int, seed int64) *tracing {
	t := &tracing{}
	for i := 0; i < n; i++ {
		t.tracers = append(t.tracers, obs.NewTracer(0, seed+int64(i)))
		t.regs = append(t.regs, obs.NewRegistry())
	}
	return t
}

// harness is one server plus its client connections, all in this process
// over loopback UDP.
type harness struct {
	srv     *rpc.Server
	clients []*rpc.Client
	tr      *tracing // nil in an untraced run
	// spans is the live span log the handler and completion callbacks write
	// to; nil outside traced blocks.
	spans atomic.Pointer[spanLog]
}

func (h *harness) close() {
	for _, c := range h.clients {
		c.Close()
	}
	if h.srv != nil {
		h.srv.Close()
	}
}

// setTraced switches tracing for the next block: the clients' budget
// tracers and the benchmark's span log.
func (h *harness) setTraced(log *spanLog) {
	for _, t := range h.tr.tracers {
		t.SetEnabled(log != nil)
	}
	h.spans.Store(log)
}

// newHarness listens, dials conns clients and warms each with warm calls
// (closed loop, window 4, answers checked). handler receives the harness
// so it can find the live span log.
func newHarness(io callIO, handler func(*harness) rpc.Handler, conns, warm int, seed int64, tr *tracing) (*harness, error) {
	h := &harness{tr: tr}
	srv, err := rpc.NewServer("127.0.0.1:0", benchKey, handler(h))
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	h.srv = srv
	for i := 0; i < conns; i++ {
		cfg := rpc.ClientConfig{
			Key: benchKey, RequestRate: clientRate, StartBudget: clientRate,
			Seed: seed + int64(i),
		}
		if tr != nil {
			cfg.Tracer, cfg.Metrics = tr.tracers[i], tr.regs[i]
		}
		cl, err := rpc.Dial(srv.Addr(), cfg)
		if err != nil {
			h.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		h.clients = append(h.clients, cl)
	}
	if warm > 0 {
		w := runClosed(h, io, 4, 0, warm, seed^0x5eed, 1<<30)
		if w.failed+w.refused > 0 || w.correct != int64(warm*conns) {
			h.close()
			return nil, fmt.Errorf("warm-up: %d correct, %d refused, %d failed of %d", w.correct, w.refused, w.failed, warm*conns)
		}
	}
	return h, nil
}

// setupHarness builds the harness setupRounds times, tearing down all but
// the last, and returns it with the median build time.
func setupHarness(io callIO, handler func(*harness) rpc.Handler, conns, warm int, seed int64, tr *tracing) (*harness, float64, error) {
	var times []float64
	var h *harness
	for r := 0; r < setupRounds; r++ {
		if h != nil {
			h.close()
		}
		runtime.GC() // start each build from a collected heap
		t0 := time.Now()
		var err error
		h, err = newHarness(io, handler, conns, warm, seed, tr)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return h, median(times), nil
}

// outcome tallies one block of calls.
type outcome struct {
	attempted int64
	correct   int64 // right answers
	hits      int64 // right answers within budget
	lat       *latLog
	refused   int64 // deadline misses and admission refusals: designed outcomes
	failed    int64 // wrong answers and any other error
	aux       [2]int64
	callAsync time.Duration
	dur       time.Duration
	errKinds  map[string]int64
}

func (o *outcome) merge(b *outcome) {
	o.attempted += b.attempted
	o.correct += b.correct
	o.hits += b.hits
	o.lat.merge(b.lat)
	o.refused += b.refused
	o.failed += b.failed
	o.aux[0] += b.aux[0]
	o.aux[1] += b.aux[1]
	o.callAsync += b.callAsync
	for k, v := range b.errKinds {
		if o.errKinds == nil {
			o.errKinds = map[string]int64{}
		}
		o.errKinds[k] += v
	}
}

// window is the timed interval completions are counted in.
type window struct{ start, end time.Time }

// refusal reports whether err is one of the answers the serving path is
// designed to give under load: a missed deadline or an admission refusal.
func refusal(err error) bool {
	return errors.Is(err, rpc.ErrDeadline) || errors.Is(err, rpc.ErrServerShed) ||
		errors.Is(err, rpc.ErrServerExpired) || errors.Is(err, rpc.ErrCannotFinish) ||
		errors.Is(err, rpc.ErrShed)
}

// settle records one finished call. Callbacks of one generator can run on
// several goroutines, so the generator's outcome is guarded by mu.
func settle(mu *sync.Mutex, o *outcome, io callIO, in int, req, resp []byte, err error, start, end time.Time, win window) {
	var ok bool
	var aux [2]int64
	if err == nil {
		ok, aux = io.check(in, req, resp)
	}
	lat := end.Sub(start)
	mu.Lock()
	defer mu.Unlock()
	switch {
	case ok:
		o.correct++
		o.aux[0] += aux[0]
		o.aux[1] += aux[1]
		hit := lat <= budget
		if hit {
			o.hits++
		}
		sec := -1
		if !end.After(win.end) && !end.Before(win.start) {
			sec = int(end.Sub(win.start) / time.Second)
		}
		o.lat.add(sec, lat, hit)
	case err != nil && refusal(err):
		o.refused++
	default:
		o.failed++
		kind := "wrong answer"
		if err != nil {
			kind = err.Error()
		}
		if o.errKinds == nil {
			o.errKinds = map[string]int64{}
		}
		o.errKinds[kind]++
	}
}

func reqID(gen int, n uint64) uint64 { return uint64(gen+1)<<40 | n }

// runClosed drives every client in a closed loop: each keeps size calls
// outstanding and re-issues from a slot as soon as its answer is checked,
// until dur has passed (or, when dur is 0, until each client has issued
// count calls). One generator goroutine per client.
func runClosed(h *harness, io callIO, size int, dur time.Duration, count int, seed int64, idBase uint64) *outcome {
	start := time.Now()
	end := start.Add(dur)
	if dur == 0 {
		end = start.Add(time.Hour)
	}
	outs := make([]*outcome, len(h.clients))
	var wg sync.WaitGroup
	for g, cl := range h.clients {
		outs[g] = &outcome{lat: newLatLog(dur)}
		wg.Add(1)
		go func(g int, cl *rpc.Client, o *outcome) {
			defer wg.Done()
			closedGen(h, cl, io, g, size, window{start, end}, count, seed+int64(g), idBase, o)
		}(g, cl, outs[g])
	}
	wg.Wait()
	total := outs[0]
	for _, o := range outs[1:] {
		total.merge(o)
	}
	total.dur = time.Since(start)
	if dur > 0 {
		total.dur = dur
	}
	return total
}

func closedGen(h *harness, cl *rpc.Client, io callIO, g, size int, win window, count int, seed int64, idBase uint64, o *outcome) {
	rng := rand.New(rand.NewSource(seed))
	var mu sync.Mutex
	bufs := make([][]byte, size)
	for i := range bufs {
		bufs[i] = make([]byte, io.size)
	}
	tokens := make(chan int, size) // one token per slot: sends never block
	log := h.spans.Load()
	issued := 0
	var n uint64
	issue := func(slot int) {
		n++
		id := reqID(g, idBase+n)
		in := rng.Intn(io.inputs)
		req := bufs[slot]
		io.fill(req, id, in)
		issued++
		t0 := time.Now()
		cl.CallAsync(io.method, req, callPrio, budget, func(resp []byte, err error) {
			t1 := time.Now()
			settle(&mu, o, io, in, req, resp, err, t0, t1, win)
			log.add(spanID(id, offCall), 0, spCall, t0, t1)
			tokens <- slot
		})
		if log != nil {
			d := time.Since(t0)
			mu.Lock()
			o.callAsync += d
			mu.Unlock()
		}
	}
	more := func() bool {
		if count > 0 {
			return issued < count
		}
		return time.Now().Before(win.end)
	}
	outstanding := 0
	for s := 0; s < size && more(); s++ {
		issue(s)
		outstanding++
	}
	for outstanding > 0 {
		slot := <-tokens
		if more() {
			issue(slot)
		} else {
			outstanding--
		}
	}
	mu.Lock()
	o.attempted = int64(issued)
	mu.Unlock()
}

// conns is how many client connections (and generator goroutines) a socket
// workload runs: one per CPU, so the load comes from as many flows as the
// host has cores and no more generator goroutines than that.
func conns() int { return runtime.NumCPU() }

func putID(b []byte, id uint64) { binary.LittleEndian.PutUint64(b, id) }
func getID(b []byte) uint64 {
	if len(b) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
