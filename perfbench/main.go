// Command perfbench is marnet's benchmark. It drives the public APIs of the
// rpc, wire, overload, vision, marsim, simnet and edge packages over two
// named workloads and prints one JSON result line:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it reports the end-to-end metrics with tracing off; with
// --trace 1 it reports the per-layer metrics of a traced run. The line
// before the result records the host and the inputs. See README.md for the
// metric definitions and BASELINE.md for the first recorded numbers.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// The metric tables mirror BENCHMARK.json (checked by bench_test.go).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"calls_per_s", "1/s"},
	{"goodput_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"deadline_hit_ratio", "ratio"},
	{"cpu_us_per_call", "us"},
	{"heap_peak_mb", "MB"},
}

var perLayer = []struct{ name, unit string }{
	{"rpc.call_async_us", "us"},
	{"rpc.call_self_us", "us"},
	{"rpc.handler_self_us", "us"},
	{"rpc.client_timeouts", "count"},
	{"rpc.client_shed", "count"},
	{"rpc.budget_queue_ms", "ms"},
	{"rpc.budget_compute_ms", "ms"},
	{"rpc.budget_net_ms", "ms"},
	{"rpc.budget_overhead_ms", "ms"},
	{"overload.useful_ratio", "ratio"},
	{"overload.reject_ratio", "ratio"},
	{"overload.codel_shed", "count"},
	{"overload.tail_drop", "count"},
	{"overload.queue_delay_ms", "ms"},
	{"wire.batched_share", "ratio"},
	{"wire.lost_frames", "count"},
	{"wire.srtt_us", "us"},
	{"wire.codec_ns_64", "ns"},
	{"wire.codec_ns_1100", "ns"},
	{"vision.decode_us", "us"},
	{"vision.match_us", "us"},
	{"vision.ransac_us", "us"},
	{"vision.inlier_ratio", "ratio"},
	{"runtime.mallocs_per_call", "count"},
	{"runtime.gc_cpu_ratio", "ratio"},
	{"runtime.sched_latency_p99_us", "us"},
	{"runtime.mutex_wait_ms_per_s", "ms/s"},
	{"simnet.events_fired", "count"},
	{"simnet.events_per_s", "1/s"},
	{"simnet.max_pending", "count"},
	{"simnet.cancelled", "count"},
	{"marsim.new_city_s", "s"},
	{"marsim.demand_ms", "ms"},
	{"marsim.replay_s", "s"},
	{"marsim.offloads", "count"},
	{"edge.solve_ms", "ms"},
	{"edge.sites", "count"},
	{"obs.trace_overhead_pct", "%"},
	{"loadgen.offered_per_s", "1/s"},
	{"trace.residue_pct", "%"},
	{"e2e.error_ratio", "ratio"},
	{"e2e.wall_s_per_vmin", "s"},
}

// run is what a workload hands back: the metric values by name (units come
// from the tables), the counts, and the inputs it ran on.
type run struct {
	values    map[string]float64
	attempted int64
	failed    int64
	inputs    map[string]any
}

type workload struct {
	name, why string
	run       func(seed int64, seconds time.Duration, traced bool) (*run, error)
}

// workloads lists every workload, as BENCHMARK.json does.
var workloads = []workload{
	{"match-closed", "feature-match offloads (1088 B, 4 in flight per connection): vision dominates server CPU; near-MTU payloads use codec and AEAD per byte", runMatchClosed},
	{"city-metro", "100k-user city on virtual time through the placement loop: the only workload for simnet, marsim and edge; no sockets", runCity},
}

func main() {
	name := flag.String("workload", "", "workload name")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "timed window, seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()

	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload <%s> --seed N --seconds S --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	traced := *trace == 1
	r, err := wl.run(*seed, time.Duration(*seconds)*time.Second, traced)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", wl.name, err)
		os.Exit(1)
	}

	table := endToEnd
	if traced {
		table = perLayer
	}
	out := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metric{}}
	for _, m := range table {
		out.Metrics[m.name] = metric{Value: r.values[m.name], Unit: m.unit}
	}

	record := map[string]any{
		"workload": wl.name, "why": wl.why, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"host":   hostInfo(),
		"inputs": r.inputs,
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(record); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(out); err != nil {
		os.Exit(1)
	}
}

func workloadNames() string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return strings.Join(ns, "|")
}

func hostInfo() map[string]any {
	kernel := "unknown"
	var u syscall.Utsname
	if err := syscall.Uname(&u); err == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		kernel = string(b)
	}
	return map[string]any{
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "os": runtime.GOOS, "arch": runtime.GOARCH,
		"kernel": kernel, "network": "loopback",
	}
}

// sortedKeys is for stable diagnostics.
func sortedKeys(m map[string]int64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
