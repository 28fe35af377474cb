package main

import (
	"fmt"
	"os"
	"runtime"
	"sync"
	"time"

	"marnet/internal/edge"
	"marnet/internal/marsim"
)

const (
	cityUsers   = 100_000
	cityHorizon = 2 * time.Minute
	// cityStep is the virtual interval between progress probes: a probe
	// event on the city's own simulator stamps the wall clock, so each gap
	// is the wall time the simulator took to advance one step.
	cityStep = 100 * time.Millisecond
)

// cityConfig is the §VI-F metro study's scenario (a diurnal fleet plus a
// stadium flash crowd of 5% of the city), shortened to cityHorizon so a
// timed window holds several same-seed iterations.
func cityConfig(seed int64) marsim.CityConfig {
	h := cityHorizon
	return marsim.CityConfig{
		Seed: seed, Users: cityUsers, Horizon: h,
		Crowd: &marsim.FlashCrowd{
			Users: cityUsers / 20, At: h * 3 / 10, RampUp: h / 20, Duration: h * 4 / 10,
			X: 40, Y: 40,
		},
	}
}

// cityIter is one city's pass of the loop: NewCity (set-up), then the timed
// DemandInstance → edge.Greedy → AssignPlacement → City.Run.
type cityIter struct {
	c                *marsim.City
	iter             uint64
	log              *spanLog
	probes           uint64
	stamps           []time.Time
	built            time.Time // NewCity's start
	newCity, run     time.Duration
	loop             time.Duration // DemandInstance through City.Run
	wall             time.Duration // NewCity through City.Run, waits included
	res              marsim.CityResult
	sites            int
	steps            []float64 // wall ms per cityStep of virtual time
	fired, cancelled uint64    // simulator events, probes excluded
}

func (it *cityIter) span(name string, off int, a, b time.Time) {
	it.log.add(it.iter*8+uint64(off), 0, name, a, b)
}

// newCityIter builds one city and schedules its progress probe.
func newCityIter(seed int64, log *spanLog, iter uint64) *cityIter {
	it := &cityIter{iter: iter, log: log}
	t0 := time.Now()
	it.c = marsim.NewCity(cityConfig(seed))
	t1 := time.Now()
	it.built, it.newCity = t0, t1.Sub(t0)
	it.span(spNewCity, 0, t0, t1)

	sim := it.c.Sim()
	it.stamps = make([]time.Time, 0, int(cityHorizon/cityStep)+2)
	var probe func()
	probe = func() {
		it.stamps = append(it.stamps, time.Now())
		it.probes++
		if sim.Now()+cityStep <= cityHorizon {
			sim.Schedule(cityStep, probe)
		}
	}
	sim.Schedule(0, probe)
	return it
}

// runLoop is the timed part of one iteration, with its checks.
func (it *cityIter) runLoop() error {
	c := it.c
	t2 := time.Now()
	inst := c.DemandInstance()
	t3 := time.Now()
	sel, err := edge.Greedy(inst)
	t4 := time.Now()
	if err != nil {
		return fmt.Errorf("greedy: %w", err)
	}
	if err := c.AssignPlacement(sel); err != nil {
		return fmt.Errorf("assign placement: %w", err)
	}
	t5 := time.Now()
	res, err := c.Run()
	t6 := time.Now()
	if err != nil {
		return fmt.Errorf("city run: %w", err)
	}
	it.span(spDemand, 1, t2, t3)
	it.span(spGreedy, 2, t3, t4)
	it.span(spAssign, 3, t4, t5)
	it.span(spCityRun, 4, t5, t6)

	if !inst.Validate(sel) {
		return fmt.Errorf("greedy selection of %d sites leaves users uncovered", len(sel))
	}
	if res.Offloads == 0 || res.Hits == 0 {
		return fmt.Errorf("city replay produced %d offloads, %d hits", res.Offloads, res.Hits)
	}
	it.run = t6.Sub(t5)
	it.loop = t6.Sub(t2)
	it.wall = t6.Sub(it.built)
	it.res = res
	it.sites = len(sel)
	it.fired = c.Sim().TotalFired() - it.probes
	it.cancelled = c.Sim().TotalCancelled()
	for i := 1; i < len(it.stamps); i++ {
		it.steps = append(it.steps, ms(it.stamps[i].Sub(it.stamps[i-1])))
	}
	it.c, it.stamps = nil, nil
	return nil
}

// cityRound is one city per CPU, run concurrently: every city is built,
// then every loop runs, so the process CPU and runtime counters read around
// the loops cover exactly those loops. Keeping every CPU busy also keeps
// the host from stealing an idle virtual CPU's wake-ups.
type cityRound struct {
	its      []*cityIter
	cpu      time.Duration // process CPU over the loops
	wall     time.Duration // first loop start to last loop end
	rt       rtDelta
	offloads int64
}

func runCityRound(seed int64, log *spanLog, firstIter uint64) (cityRound, error) {
	n := runtime.NumCPU()
	r := cityRound{its: make([]*cityIter, n)}
	// Each set-up starts from a collected heap, so NewCity does not pay for
	// the previous round's garbage.
	runtime.GC()
	var wg sync.WaitGroup
	for w := range r.its {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r.its[w] = newCityIter(seed, log, firstIter+uint64(w))
		}(w)
	}
	wg.Wait()

	errs := make([]error, n)
	rt0, cpu0, t0 := readRuntime(), cpuTime(), time.Now()
	for w, it := range r.its {
		wg.Add(1)
		go func(w int, it *cityIter) {
			defer wg.Done()
			errs[w] = it.runLoop()
		}(w, it)
	}
	wg.Wait()
	r.wall, r.cpu, r.rt = time.Since(t0), cpuTime()-cpu0, runtimeDelta(rt0, readRuntime())
	for w, it := range r.its {
		if errs[w] != nil {
			return r, errs[w]
		}
		r.offloads += it.res.Offloads
	}
	return r, nil
}

func runCity(seed int64, dur time.Duration, traced bool) (*run, error) {
	r := &run{values: map[string]float64{}, inputs: map[string]any{
		"users": cityUsers, "crowd_users": cityUsers / 20, "virtual_minutes_per_iteration": cityHorizon.Minutes(),
		"progress_step_ms": ms(cityStep), "loop": "NewCity (set-up), then DemandInstance, edge.Greedy, AssignPlacement, City.Run",
		"cities_per_round": runtime.NumCPU(), "network": "none (virtual time)",
	}}
	// Every city runs the same seed, so each after the first is a same-seed
	// rerun whose trace hash must match. The traced run alternates untraced
	// and traced rounds.
	minRounds := 1
	var log *spanLog
	if traced {
		minRounds = 2
		log = newSpanLog()
	}
	smp := startSampler(nil)
	start := time.Now()
	var untr, tr []cityRound
	for i := 0; len(untr)+len(tr) < minRounds || time.Since(start) < dur; i++ {
		on := traced && i%2 == 1
		var l *spanLog
		if on {
			l = log
		}
		rd, err := runCityRound(seed, l, uint64(i*runtime.NumCPU()+1))
		if err != nil {
			smp.stop()
			return nil, err
		}
		for _, it := range rd.its {
			r.attempted++
			first := rd.its[0]
			if len(untr) > 0 {
				first = untr[0].its[0]
			}
			if it.res.TraceHash != first.res.TraceHash || it.res.Offloads != first.res.Offloads {
				fmt.Fprintf(os.Stderr, "city: same-seed rerun diverged: hash %x offloads %d vs %x %d\n",
					it.res.TraceHash, it.res.Offloads, first.res.TraceHash, first.res.Offloads)
				r.failed++
			}
		}
		if on {
			tr = append(tr, rd)
		} else {
			untr = append(untr, rd)
		}
	}
	smp.stop()
	r.inputs["iterations"] = r.attempted
	uIts, tIts := iters(untr), iters(tr)

	perRound := func(rds []cityRound, f func(cityRound) float64) float64 {
		xs := make([]float64, len(rds))
		for i, rd := range rds {
			xs[i] = f(rd)
		}
		return median(xs)
	}
	perIter := func(its []*cityIter, f func(*cityIter) float64) float64 {
		xs := make([]float64, len(its))
		for i, it := range its {
			xs[i] = f(it)
		}
		return median(xs)
	}
	base := uIts[0].res
	v := r.values
	if !traced {
		prof, outside := stepProfile(uIts)
		loopS := outside + sum(prof)/1000
		r.inputs["latency_samples"] = len(prof)
		r.inputs["iterations_per_step"] = len(uIts)
		v["setup_s"] = perIter(uIts, func(it *cityIter) float64 { return it.newCity.Seconds() })
		v["calls_per_s"] = float64(base.Offloads) / loopS
		v["goodput_per_s"] = float64(base.Hits) / loopS
		v["p50_ms"] = quantile(prof, 0.50)
		v["p99_ms"] = quantile(prof, 0.99)
		v["deadline_hit_ratio"] = base.HoldRate
		v["cpu_us_per_call"] = perRound(untr, func(rd cityRound) float64 { return us(rd.cpu) / float64(rd.offloads) })
		v["heap_peak_mb"] = smp.heapPeakMB()
		return r, nil
	}

	agg := log.aggregate()
	v["simnet.events_fired"] = float64(uIts[0].fired)
	v["simnet.events_per_s"] = perIter(uIts, func(it *cityIter) float64 { return float64(it.fired) / it.run.Seconds() })
	v["simnet.max_pending"] = float64(base.MaxPending)
	v["simnet.cancelled"] = float64(uIts[0].cancelled)
	v["marsim.new_city_s"] = agg[spNewCity].meanTotal().Seconds()
	v["marsim.demand_ms"] = ms(agg[spDemand].meanTotal())
	v["marsim.replay_s"] = agg[spCityRun].meanTotal().Seconds()
	v["marsim.offloads"] = float64(base.Offloads)
	v["edge.solve_ms"] = ms(agg[spGreedy].meanTotal())
	v["edge.sites"] = float64(uIts[0].sites)
	v["runtime.mallocs_per_call"] = perRound(untr, func(rd cityRound) float64 { return float64(rd.rt.mallocs) / float64(rd.offloads) })
	v["runtime.gc_cpu_ratio"] = perRound(untr, func(rd cityRound) float64 { return rd.rt.gcCPURatio })
	v["runtime.sched_latency_p99_us"] = perRound(untr, func(rd cityRound) float64 { return us(rd.rt.schedP99) })
	v["runtime.mutex_wait_ms_per_s"] = perRound(untr, func(rd cityRound) float64 { return rd.rt.mutexWaitSec * 1000 / rd.wall.Seconds() })
	wallU := perIter(uIts, func(it *cityIter) float64 { return it.loop.Seconds() })
	wallT := perIter(tIts, func(it *cityIter) float64 { return it.loop.Seconds() })
	v["obs.trace_overhead_pct"] = 100 * (wallT/wallU - 1)
	var walls time.Duration
	for _, it := range tIts {
		walls += it.wall
	}
	spanned := agg[spNewCity].total + agg[spDemand].total + agg[spGreedy].total + agg[spAssign].total + agg[spCityRun].total
	v["trace.residue_pct"] = 100 * ratio(float64(walls-spanned), float64(walls))
	v["e2e.error_ratio"] = ratio(float64(base.Shed), float64(base.Offloads))
	v["e2e.wall_s_per_vmin"] = wallU / cityHorizon.Minutes()
	codecLayer(v)
	if err := log.writeOut("city-metro"); err != nil {
		return nil, err
	}
	return r, nil
}

func iters(rds []cityRound) []*cityIter {
	var its []*cityIter
	for _, rd := range rds {
		its = append(its, rd.its...)
	}
	return its
}

// stepProfile denoises the iterations' step times. Every iteration replays
// the same seed, so step k does the same simulated work in each; its median
// wall time across iterations is that work's cost with the shared host's
// stalls voted out. outside is the median, in seconds, of the loop time the
// steps do not cover (DemandInstance, edge.Greedy, AssignPlacement, and
// City.Run's own set-up and checks).
func stepProfile(its []*cityIter) (prof []float64, outside float64) {
	prof = make([]float64, len(its[0].steps))
	col := make([]float64, len(its))
	for k := range prof {
		for i, it := range its {
			col[i] = it.steps[k]
		}
		prof[k] = median(col)
	}
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = it.loop.Seconds() - sum(it.steps)/1000
	}
	return prof, median(out)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
