package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"marnet/internal/core"
	"marnet/internal/obs"
	"marnet/internal/rpc"
	"marnet/internal/wire"
)

// Fixed load settings, constants so that every commit is measured at the
// same offered load.
const (
	matchWarm   = 50 // warm-up calls per connection
	matchWindow = 4  // match-closed: calls outstanding per connection
)

type sockSpec struct {
	name    string
	io      callIO
	handler func(*harness) rpc.Handler
	warm    int
	window  int // calls outstanding per connection
	inputs  map[string]any
}

func runMatchClosed(seed int64, dur time.Duration, traced bool) (*run, error) {
	set, err := newMatchSet(seed)
	if err != nil {
		return nil, err
	}
	io := set.io()
	return runSockets(sockSpec{
		name: "match-closed", io: io, handler: set.handler, warm: matchWarm, window: matchWindow,
		inputs: map[string]any{
			"request_bytes": io.size, "response_bytes": respSize,
			"query_features": queryFeatures, "reference_features": len(set.ref), "distinct_queries": len(set.queries),
			"scene": fmt.Sprintf("%dx%d, %d rects", sceneW, sceneH, sceneRects), "max_shift_px": maxShift,
			"pose_tolerance_px": poseTolerance,
		},
	}, seed, dur, traced)
}

// budgetStages groups the budget tracker's stages as the rpc.budget_*
// metrics report them: queue, compute, net (both ways), overhead.
var budgetStages = [4][]string{
	{obs.StageQueue}, {obs.StageCompute}, {obs.StageNetUp, obs.StageNetDown}, {obs.StageOverhead},
}

// counters is every program counter a block's per-layer numbers difference.
type counters struct {
	cpu                           time.Duration
	rt                            rtSnap
	served, rejected, codel, tail int64
	clientTimeouts, clientShed    int64
	// Traced runs: the clients' budget stage sums (ns, by budgetStages)
	// and the number of calls they cover.
	budgetNs    [4]int64
	budgetCalls int64
}

func readCounters(h *harness) counters {
	c := counters{cpu: cpuTime(), rt: readRuntime()}
	st := h.srv.Stats()
	c.served = st.Served
	c.rejected = st.ExpiredOnArrival + st.ExpiredInQueue + st.Shed + st.QueueFull + st.CannotFinish + st.Draining
	for i := range st.Gate.Admission.CoDelShed {
		c.codel += st.Gate.Admission.CoDelShed[i]
		c.tail += st.Gate.Admission.TailDrop[i]
	}
	for _, cl := range h.clients {
		cs := cl.Stats()
		c.clientTimeouts += cs.Timeouts
		c.clientShed += cs.ShedCalls + cs.ServerSheds
	}
	if h.tr != nil {
		for _, reg := range h.tr.regs {
			stage := func(name string) *obs.Histogram {
				return reg.Histogram("mar_budget_stage_ns", obs.L("stage", name))
			}
			for i, names := range budgetStages {
				for _, name := range names {
					c.budgetNs[i] += stage(name).Sum()
				}
			}
			// Every report observes every stage once.
			c.budgetCalls += stage(obs.StageQueue).Count()
		}
	}
	return c
}

// blockResult is one timed block: its calls, the counters around it, and
// what the sampler saw.
type blockResult struct {
	o          *outcome
	c0, c1     counters
	heapPeakMB float64
	queueMs    float64
}

func measureBlock(sp sockSpec, h *harness, dur time.Duration, seed int64, idBase uint64) blockResult {
	smp := startSampler(func() float64 { return ms(h.srv.Gate().QueueDelay()) })
	c0 := readCounters(h)
	o := runClosed(h, sp.io, sp.window, dur, 0, seed, idBase)
	c1 := readCounters(h)
	smp.stop()
	return blockResult{o: o, c0: c0, c1: c1, heapPeakMB: smp.heapPeakMB(), queueMs: smp.gaugeMean()}
}

func (b blockResult) cpuPerCall() float64 {
	return ratio(us(b.c1.cpu-b.c0.cpu), float64(b.o.correct))
}

func runSockets(sp sockSpec, seed int64, dur time.Duration, traced bool) (*run, error) {
	n := conns()
	sp.inputs["loop"] = "closed"
	sp.inputs["window_per_conn"] = sp.window
	sp.inputs["connections"] = n
	sp.inputs["generators"] = n
	sp.inputs["budget_ms"] = ms(budget)
	sp.inputs["priority"] = callPrio.String()
	sp.inputs["client_request_rate_bps"] = clientRate
	sp.inputs["client_start_budget_bps"] = clientRate
	sp.inputs["aead"] = true
	sp.inputs["server"] = "rpc.NewServer, default options"

	var tr *tracing
	if traced {
		tr = newTracing(n, seed)
	}
	h, setupS, err := setupHarness(sp.io, sp.handler, n, sp.warm, seed, tr)
	if err != nil {
		return nil, err
	}
	defer h.close()

	r := &run{values: map[string]float64{}, inputs: sp.inputs}
	if !traced {
		b := measureBlock(sp, h, dur, seed, 1<<32)
		o := b.o
		r.attempted, r.failed = o.attempted, o.failed
		r.values["setup_s"] = setupS
		secs := int(o.dur / time.Second)
		r.values["calls_per_s"] = perSecond(o.lat.secCalls(), secs)
		r.values["goodput_per_s"] = perSecond(o.lat.hits, secs)
		r.values["p99_ms"] = o.lat.p99PerSecond()
		r.values["p50_ms"] = o.lat.quantile(0.50)
		r.values["deadline_hit_ratio"] = ratio(float64(o.hits), float64(o.attempted))
		r.values["cpu_us_per_call"] = b.cpuPerCall()
		r.values["heap_peak_mb"] = b.heapPeakMB
		sp.inputs["latency_samples"] = o.correct
		noteErrors(o)
		return r, nil
	}

	// Traced run: four blocks on one harness, alternating tracing off and
	// on. Counter-based numbers come from the untraced blocks, span- and
	// tracer-based numbers from the traced ones, and the CPU per call of
	// the two kinds gives the cost of tracing.
	log := newSpanLog()
	var untr, trb []blockResult
	for i := 0; i < 4; i++ {
		on := i%2 == 1
		if on {
			h.setTraced(log)
		} else {
			h.setTraced(nil)
		}
		b := measureBlock(sp, h, dur/4, seed+int64(i), uint64(i+1)<<32)
		if on {
			trb = append(trb, b)
		} else {
			untr = append(untr, b)
		}
	}
	h.setTraced(nil)
	all := &outcome{}
	for _, b := range append(append([]blockResult{}, untr...), trb...) {
		all.merge(b.o)
	}
	r.attempted, r.failed = all.attempted, all.failed
	noteErrors(all)
	socketLayers(r.values, h, untr, trb, log)
	if err := log.writeOut(sp.name); err != nil {
		return nil, err
	}
	return r, nil
}

func noteErrors(o *outcome) {
	for _, k := range sortedKeys(o.errKinds) {
		fmt.Fprintf(os.Stderr, "failed calls: %d × %s\n", o.errKinds[k], k)
	}
}

func socketLayers(v map[string]float64, h *harness, untr, tr []blockResult, log *spanLog) {
	u, t := &outcome{}, &outcome{}
	var uDur time.Duration
	var uCPU, tCPU time.Duration
	var served, rejected, codel, tail, timeouts, shed int64
	var queueMs, mallocs, gcRatio, schedP99, mutexWait float64
	for _, b := range untr {
		u.merge(b.o)
		uDur += b.o.dur
		uCPU += b.c1.cpu - b.c0.cpu
		served += b.c1.served - b.c0.served
		rejected += b.c1.rejected - b.c0.rejected
		codel += b.c1.codel - b.c0.codel
		tail += b.c1.tail - b.c0.tail
		timeouts += b.c1.clientTimeouts - b.c0.clientTimeouts
		shed += b.c1.clientShed - b.c0.clientShed
		queueMs += b.queueMs / float64(len(untr))
		d := runtimeDelta(b.c0.rt, b.c1.rt)
		mallocs += float64(d.mallocs)
		gcRatio += d.gcCPURatio / float64(len(untr))
		schedP99 += us(d.schedP99) / float64(len(untr))
		mutexWait += d.mutexWaitSec
	}
	var stageNs [4]int64
	var stageCalls int64
	for _, b := range tr {
		t.merge(b.o)
		tCPU += b.c1.cpu - b.c0.cpu
		for i := range stageNs {
			stageNs[i] += b.c1.budgetNs[i] - b.c0.budgetNs[i]
		}
		stageCalls += b.c1.budgetCalls - b.c0.budgetCalls
	}

	agg := log.aggregate()
	// Mean of a budget stage group over the traced blocks' calls: the
	// same calls the spans cover.
	stage := func(i int) float64 { return ratio(ms(time.Duration(stageNs[i])), float64(stageCalls)) }
	v["rpc.call_async_us"] = ratio(us(t.callAsync), float64(t.attempted))
	v["rpc.call_self_us"] = us(agg[spCall].meanSelf())
	v["rpc.handler_self_us"] = us(agg[spHandler].meanSelf())
	v["rpc.client_timeouts"] = float64(timeouts)
	v["rpc.client_shed"] = float64(shed)
	v["rpc.budget_queue_ms"] = stage(0)
	v["rpc.budget_compute_ms"] = stage(1)
	v["rpc.budget_net_ms"] = stage(2)
	v["rpc.budget_overhead_ms"] = stage(3)

	v["overload.useful_ratio"] = ratio(float64(u.hits), float64(served))
	v["overload.reject_ratio"] = ratio(float64(rejected), float64(u.attempted))
	v["overload.codel_shed"] = float64(codel)
	v["overload.tail_drop"] = float64(tail)
	v["overload.queue_delay_ms"] = queueMs

	var sent, batched, lost int64
	var srtt time.Duration
	for _, cl := range h.clients {
		c := cl.Session().Conn()
		_, f := c.BatchStats()
		batched += f
		sent += sentFrames(c)
		lost += c.LostFrameCount()
		srtt += c.SRTT()
	}
	v["wire.batched_share"] = ratio(float64(batched), float64(sent))
	v["wire.lost_frames"] = float64(lost)
	v["wire.srtt_us"] = us(srtt / time.Duration(len(h.clients)))
	codecLayer(v)

	v["vision.decode_us"] = us(agg[spDecode].meanTotal())
	v["vision.match_us"] = us(agg[spMatch].meanTotal())
	v["vision.ransac_us"] = us(agg[spRansac].meanTotal())
	v["vision.inlier_ratio"] = ratio(float64(u.aux[0]+t.aux[0]), float64(u.aux[1]+t.aux[1]))

	v["runtime.mallocs_per_call"] = ratio(mallocs, float64(u.correct))
	v["runtime.gc_cpu_ratio"] = gcRatio
	v["runtime.sched_latency_p99_us"] = schedP99
	v["runtime.mutex_wait_ms_per_s"] = ratio(mutexWait*1000, uDur.Seconds())

	if u.correct > 0 && t.correct > 0 {
		uPer := us(uCPU) / float64(u.correct)
		tPer := us(tCPU) / float64(t.correct)
		v["obs.trace_overhead_pct"] = 100 * (tPer/uPer - 1)
	}
	v["loadgen.offered_per_s"] = ratio(float64(u.attempted), uDur.Seconds())
	if call := agg[spCall].meanTotal(); call > 0 {
		covered := ms(agg[spHandler].meanTotal()) + stage(0) + stage(2)
		v["trace.residue_pct"] = 100 * (ms(call) - covered) / ms(call)
	}
	v["e2e.error_ratio"] = ratio(float64(u.refused+u.failed), float64(u.attempted))
}

// sentFrames is how many frames c has sent, read through its published
// metrics (the counter has no accessor of its own).
func sentFrames(c *wire.Conn) int64 {
	reg := obs.NewRegistry()
	c.PublishMetrics(reg)
	p, _ := reg.Lookup("mar_wire_frames_sent_total")
	return int64(p.Value)
}

// codecLayer times AppendFrame+DecodeFrame at two request sizes: 64 B, the
// smallest call, where the per-frame cost dominates, and ~1.1 KB, the
// feature-match query, where the per-byte cost does.
func codecLayer(v map[string]float64) {
	v["wire.codec_ns_64"] = codecNs(64)
	v["wire.codec_ns_1100"] = codecNs(1100)
}

func codecNs(size int) float64 {
	const iters = 200_000
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i)
	}
	hdr := wire.Header{Type: wire.TypeData, Stream: 1, Class: uint8(core.ClassLossRecovery), Prio: uint8(callPrio)}
	buf := make([]byte, 0, wire.HeaderLenTraced+size)
	var sink int
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		hdr.Seq = int64(i)
		b, err := wire.AppendFrame(buf[:0], hdr, payload)
		if err != nil {
			return 0
		}
		got, p, err := wire.DecodeFrame(b)
		if err != nil || got.Seq != hdr.Seq {
			return 0
		}
		sink += len(p)
	}
	el := time.Since(t0)
	runtime.KeepAlive(sink)
	return float64(el.Nanoseconds()) / iters
}
