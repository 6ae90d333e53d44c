// Command perfbench is the end-to-end benchmark of auricd. It generates a
// 28-market network from its seed, saves it as a snapshot, execs the real
// auricd binary built from this checkout on that snapshot, and drives it
// over loopback HTTP with at most two connections:
//
//	launch  single-carrier pair-wise requests, Zipf(1.2) over 64 carriers
//	sweep   NDJSON batches of 64 carriers cycling through every carrier
//
// Before the load, each run times a closed-loop probe of clone upserts and
// tombstones on the fresh server, which measures the write path.
//
// With -trace 0 it prints the end-to-end metrics; with -trace 1 it repeats
// the same inputs in process, times each layer's public entry point, and
// prints per-layer metrics instead. The last line of standard output is one
// JSON object: {"correct", "attempted", "failed", "metrics"}. Any failed
// operation or output check makes the exit status non-zero.
//
// Run it through run.sh, which builds auricd and this command first:
//
//	bash perfbench/run.sh --workload launch --seed 1 --seconds 20 --trace 0
//
// NOISE.md records the measured spread of every metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	auricd   string
	dir      string
	// cache holds what a run derives from its seed alone — the snapshot
	// and the in-process probe answers — keyed by this binary, so a
	// rebuilt benchmark never reads another build's files.
	cache string
}

// metric is one reported number.
type metric struct {
	name  string
	value float64
	unit  string
}

// result is a run's outcome, printed as the last line of standard output.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	metrics   []metric
	notes     []string // human-readable lines printed before the result
}

func (r *result) add(name string, value float64, unit string) {
	r.metrics = append(r.metrics, metric{name, value, unit})
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *result) print() {
	for _, n := range r.notes {
		fmt.Println(n)
	}
	sort.Slice(r.metrics, func(i, j int) bool { return r.metrics[i].name < r.metrics[j].name })
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			m.value = 0 // a failed run can lack samples; JSON has no NaN
		}
		fmt.Printf("  %-34s %14.6g %s\n", m.name, m.value, m.unit)
		ms[m.name] = value{m.value, m.unit}
	}
	out, _ := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, ms})
	fmt.Println(string(out))
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "launch or sweep")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated network and every request sequence")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds per run")
	flag.IntVar(&trace, "trace", 0, "1: per-layer traced run in process; 0: end-to-end run")
	flag.StringVar(&o.auricd, "auricd", "", "auricd binary to benchmark")
	flag.StringVar(&o.dir, "dir", filepath.Join(".bench_build", "perfbench"), "directory for snapshots, journals and span dumps")
	flag.Parse()
	o.trace = trace == 1
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	key, err := buildKey()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	o.cache = filepath.Join(o.dir, "cache-"+key)

	// A signal still stops every auricd this process started: stopAll
	// runs before exit.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		stopAll()
		os.Exit(3)
	}()

	var res *result
	if o.trace {
		res, err = runTraced(o)
	} else {
		res, err = runEndToEnd(o)
	}
	stopAll()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res.print()
	if !res.correct {
		os.Exit(1)
	}
}

func (o options) validate() error {
	switch o.workload {
	case "launch", "sweep":
	default:
		return fmt.Errorf("unknown -workload %q (want launch or sweep)", o.workload)
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	if o.auricd == "" {
		return fmt.Errorf("-auricd is required")
	}
	if _, err := os.Stat(o.auricd); err != nil {
		return err
	}
	return nil
}

// buildKey names this build of the benchmark by the hash of its binary.
func buildKey() (string, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(exe)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// started tracks every auricd this process runs, so an error path or a
// signal never leaves one behind.
var started struct {
	sync.Mutex
	servers []*server
}

func track(s *server) {
	started.Lock()
	defer started.Unlock()
	started.servers = append(started.servers, s)
}

func stopAll() {
	started.Lock()
	defer started.Unlock()
	for _, s := range started.servers {
		s.stop()
	}
	started.servers = nil
}

// ms converts durations to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
