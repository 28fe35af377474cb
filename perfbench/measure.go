package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// cpuTime returns the process's user+system CPU time (client and server
// share the process, so this covers both ends of every call).
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime metric names the benchmark reads. All exist since Go 1.21.
const (
	rmHeapLive  = "/gc/heap/live:bytes"
	rmMallocs   = "/gc/heap/allocs:objects"
	rmGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	rmTotalCPU  = "/cpu/classes/total:cpu-seconds"
	rmSchedLat  = "/sched/latencies:seconds"
	rmMutexWait = "/sync/mutex/wait/total:seconds"
)

// rtSnap is one read of the runtime counters a per-layer delta needs.
type rtSnap struct {
	mallocs   uint64
	gcCPU     float64
	totalCPU  float64
	mutexWait float64
	sched     *metrics.Float64Histogram
}

func readRuntime() rtSnap {
	s := []metrics.Sample{{Name: rmMallocs}, {Name: rmGCCPU}, {Name: rmTotalCPU}, {Name: rmMutexWait}, {Name: rmSchedLat}}
	metrics.Read(s)
	return rtSnap{
		mallocs:   s[0].Value.Uint64(),
		gcCPU:     s[1].Value.Float64(),
		totalCPU:  s[2].Value.Float64(),
		mutexWait: s[3].Value.Float64(),
		sched:     s[4].Value.Float64Histogram(),
	}
}

// rtDelta is what the runtime did between two snapshots.
type rtDelta struct {
	mallocs      uint64
	gcCPURatio   float64
	mutexWaitSec float64
	schedP99     time.Duration
}

func runtimeDelta(a, b rtSnap) rtDelta {
	d := rtDelta{mallocs: b.mallocs - a.mallocs, mutexWaitSec: b.mutexWait - a.mutexWait}
	if tot := b.totalCPU - a.totalCPU; tot > 0 {
		d.gcCPURatio = (b.gcCPU - a.gcCPU) / tot
	}
	// Percentile of the bucket-count difference: the scheduling latencies
	// observed inside the window only.
	counts := make([]uint64, len(b.sched.Counts))
	var total uint64
	for i := range counts {
		counts[i] = b.sched.Counts[i] - a.sched.Counts[i]
		total += counts[i]
	}
	if total > 0 {
		want := uint64(math.Ceil(0.99 * float64(total)))
		var cum uint64
		for i, c := range counts {
			cum += c
			if cum >= want {
				// Upper edge of the bucket; the last bucket is unbounded,
				// so fall back to its lower edge.
				edge := b.sched.Buckets[i+1]
				if math.IsInf(edge, 1) {
					edge = b.sched.Buckets[i]
				}
				d.schedP99 = time.Duration(edge * float64(time.Second))
				break
			}
		}
	}
	return d
}

// sampler polls cheap instantaneous readings every few milliseconds over a
// timed window: the heap the last GC found live, for heap_peak_mb, and,
// when set, an extra gauge such as the admission gate's queue delay. It
// reads the live heap, not the allocation sawtooth between GCs, so a peak
// does not depend on where a GC cycle happens to fall. It is one goroutine,
// stopped and waited for by stop.
type sampler struct {
	gauge func() float64

	stopc chan struct{}
	wg    sync.WaitGroup

	heapPeak  uint64    // peak of the current second
	heapPeaks []float64 // peak of each whole second, bytes
	gaugeSum  float64
	gaugeN    int
}

const samplePeriod = 5 * time.Millisecond

func startSampler(gauge func() float64) *sampler {
	s := &sampler{gauge: gauge, stopc: make(chan struct{})}
	s.wg.Add(1)
	go s.loop()
	return s
}

func (s *sampler) loop() {
	defer s.wg.Done()
	sample := []metrics.Sample{{Name: rmHeapLive}}
	t := time.NewTicker(samplePeriod)
	defer t.Stop()
	second := time.Now().Add(time.Second)
	for {
		metrics.Read(sample)
		if v := sample[0].Value.Uint64(); v > s.heapPeak {
			s.heapPeak = v
		}
		if now := time.Now(); !now.Before(second) {
			s.heapPeaks = append(s.heapPeaks, float64(s.heapPeak))
			s.heapPeak = 0
			second = second.Add(time.Second)
		}
		if s.gauge != nil {
			s.gaugeSum += s.gauge()
			s.gaugeN++
		}
		select {
		case <-s.stopc:
			return
		case <-t.C:
		}
	}
}

// stop ends sampling; the readings are safe to use once it returns.
func (s *sampler) stop() {
	close(s.stopc)
	s.wg.Wait()
}

// heapPeakMB is the median over the window's whole seconds of each second's
// peak live heap (the partial last second only when there is no whole one).
func (s *sampler) heapPeakMB() float64 {
	if len(s.heapPeaks) == 0 {
		return float64(s.heapPeak) / (1 << 20)
	}
	return median(s.heapPeaks) / (1 << 20)
}

func (s *sampler) gaugeMean() float64 {
	if s.gaugeN == 0 {
		return 0
	}
	return s.gaugeSum / float64(s.gaugeN)
}

// quantile returns the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	i := int(math.Ceil(q*float64(len(c)))) - 1
	if i < 0 {
		i = 0
	}
	return c[i]
}

// perSecond is the median over the window's whole seconds of a per-second
// count: a stall in one second moves it no more than any other second.
func perSecond(counts []int64, seconds int) float64 {
	xs := make([]float64, seconds)
	for i := range xs {
		if i < len(counts) {
			xs[i] = float64(counts[i])
		}
	}
	return median(xs)
}

// Latency buckets: log-spaced, each 1% wider than the last, from 1 µs up
// to about 1.1 s (later answers land in the last bucket).
const (
	latMin     = time.Microsecond
	latGrowth  = 1.01
	latBuckets = 1400
)

var logLatGrowth = math.Log(latGrowth)

// latLog records a block's right answers in memory sized before the block
// starts, so recording allocates nothing and what the benchmark keeps does
// not grow with throughput: the live heap sampled in the window is the
// program's. Each whole second of the window has a latency histogram and a
// count of answers inside the budget; one more histogram row takes the
// answers completed outside the window.
type latLog struct {
	secs   int
	counts []uint32 // (secs+1) rows of latBuckets
	hits   []int64  // per second of the window
}

func newLatLog(window time.Duration) *latLog {
	secs := int((window + time.Second - 1) / time.Second)
	return &latLog{secs: secs, counts: make([]uint32, (secs+1)*latBuckets), hits: make([]int64, secs)}
}

// add records one answer of latency d completed in second sec of the window
// (-1: outside it).
func (l *latLog) add(sec int, d time.Duration, hit bool) {
	if sec < 0 || sec >= l.secs {
		sec = l.secs
	} else if hit {
		l.hits[sec]++
	}
	b := 0
	if d > latMin {
		b = int(math.Log(float64(d)/float64(latMin)) / logLatGrowth)
	}
	if b >= latBuckets {
		b = latBuckets - 1
	}
	l.counts[sec*latBuckets+b]++
}

// merge adds b's answers into l. A nil l (the totals of a traced run,
// which report no latency) keeps nothing.
func (l *latLog) merge(b *latLog) {
	if l == nil {
		return
	}
	for i, c := range b.counts {
		l.counts[i] += c
	}
	for i, h := range b.hits {
		l.hits[i] += h
	}
}

func (l *latLog) row(sec int) []uint32 { return l.counts[sec*latBuckets : (sec+1)*latBuckets] }

// secCalls is the number of answers completed in each second of the window.
func (l *latLog) secCalls() []int64 {
	out := make([]int64, l.secs)
	for s := range out {
		for _, c := range l.row(s) {
			out[s] += int64(c)
		}
	}
	return out
}

// quantile is the q-quantile of every recorded answer, in ms.
func (l *latLog) quantile(q float64) float64 {
	all := make([]uint32, latBuckets)
	for s := 0; s <= l.secs; s++ {
		for i, c := range l.row(s) {
			all[i] += c
		}
	}
	return bucketQuantile(all, q)
}

// p99PerSecond is the median over the window's whole seconds of each
// second's 99th-percentile latency (by completion second), in ms.
func (l *latLog) p99PerSecond() float64 {
	var p99s []float64
	for s := 0; s < l.secs; s++ {
		if p := bucketQuantile(l.row(s), 0.99); p > 0 {
			p99s = append(p99s, p)
		}
	}
	return median(p99s)
}

// bucketQuantile is the nearest-rank q-quantile of a latency histogram in
// ms, placed within its bucket by the rank's position among the bucket's
// samples (geometric interpolation); 0 when the histogram is empty.
func bucketQuantile(counts []uint32, q float64) float64 {
	var n uint64
	for _, c := range counts {
		n += uint64(c)
	}
	if n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range counts {
		if c == 0 || cum+uint64(c) < rank {
			cum += uint64(c)
			continue
		}
		f := (float64(rank-cum) - 0.5) / float64(c)
		return ms(latMin) * math.Pow(latGrowth, float64(i)+f)
	}
	return 0
}

func median(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
