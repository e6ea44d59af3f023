// Command servebench is the repository's served-query benchmark. One run
// generates a TPC-H scale-0.1 dataset from -seed with csgen, launches real
// csserve processes with their default flags, drives one workload from
// closed-loop clients, checks every answer against serial library
// execution, and prints every end-to-end metric by name and unit. With
// -trace 1 it then replays a seeded request list down the layer ladder
// (served → coordinator → HTTP handler → session → executor → plan nodes)
// in this process and prints the per-layer metrics instead. The last line
// of standard output is the result as one JSON object.
//
// Run it from the repository root through its wrapper, which builds the
// binaries first:
//
//	bash servebench/run.sh --workload analytic --seed 1 --seconds 10 --trace 0
//
// See servebench/README.md for the workloads and the metric map.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"

	"matstore"
	"matstore/internal/service"
	"matstore/internal/storage"
	"matstore/internal/tpch"
)

// workload is one traffic mix over the shared request generator.
type workload struct {
	name    string
	clients int  // closed-loop clients (capped at the CPU count)
	sharded bool // serve through a coordinator over key-partitioned shards
	hot     bool // Zipf over a few shapes instead of fresh shapes
	warm    int  // untimed warm-up requests
	// perSecond sizes the timed list of fresh shapes: perSecond × seconds
	// requests per strategy lap (analytic, sharded).
	perSecond int
	traced    int // requests the traced run replays
}

var workloads = []workload{
	{name: "analytic", clients: 2, warm: 100, perSecond: 120, traced: 120},
	{name: "hot", clients: 1, hot: true, warm: 500, traced: 300},
	{name: "sharded", clients: 1, sharded: true, warm: 80, perSecond: 80, traced: 120},
}

const (
	scale        = 0.1
	setups       = 7 // set-ups per run; setup_s is their median
	shardCount   = 2
	partitionKey = "orders.custkey,customer.custkey,lineitem.linenum"
	hotShapes    = 64
	// hotPerSecond bounds the hot workload's timed Zipf stream length per
	// second of measurement (the stream wraps if a run outpaces it).
	hotPerSecond = 20000
	// strategyLaps is how many times a fresh-shape list can be replayed
	// under rotated strategies before served shapes repeat.
	strategyLaps = 4
)

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: analytic, hot or sharded")
	seed := flag.Uint64("seed", 1, "seed of the dataset and the request lists")
	seconds := flag.Int("seconds", 10, "length of the timed closed-loop run")
	trace := flag.Int("trace", 0, "1 = also run the traced layer ladder and report per-layer metrics")
	root := flag.String("root", ".", "repository checkout to run in")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "servebench: need -workload analytic|hot|sharded, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	work := filepath.Join(*root, ".bench_build", "servebench")

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(1)
	}()
	defer stopAll()

	b := &bench{w: *w, seed: *seed, seconds: *seconds, traced: *trace == 1,
		root: *root, bin: filepath.Join(work, "bin"), work: work, runDir: filepath.Join(work, "run")}
	res, err := b.run()
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "servebench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type bench struct {
	w       workload
	seed    uint64
	seconds int
	traced  bool
	root    string
	bin     string
	work    string
	runDir  string

	db        *matstore.DB
	ref       *reference
	warm      []item
	laps      [][]item // fresh-shape workloads: the timed list under each strategy lap
	hotItems  []item   // hot: the distinct shapes in rank order
	hotStream []int    // hot: the timed Zipf stream over hotItems
	trace     []item
}

func (b *bench) run() (*result, error) {
	if err := os.RemoveAll(b.runDir); err != nil {
		return nil, err
	}
	logDir := filepath.Join(b.runDir, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(filepath.Join(b.runDir, "data"))
	prov := provenance(b)

	// Reference answers come from a separately generated copy of the
	// unsharded dataset, opened in this process; none of this is timed.
	refDir := filepath.Join(b.runDir, "data", "reference")
	if err := b.csgen(refDir, false, logDir); err != nil {
		return nil, err
	}
	db, err := matstore.Open(refDir)
	if err != nil {
		return nil, err
	}
	defer db.Close()
	b.db = db
	t0 := time.Now()
	if err := b.makeLists(); err != nil {
		return nil, err
	}
	fmt.Printf("servebench: %s seed=%d: %d reference answers in %.1fs\n",
		b.w.name, b.seed, len(b.ref.answers), time.Since(t0).Seconds())

	servedDir := filepath.Join(b.runDir, "data", "served")
	fl, setupS, err := b.setups(servedDir, logDir)
	if err != nil {
		return nil, err
	}
	defer fl.stop()
	prov["csserve_args"] = fl.argv()
	storedBytes, err := dirBytes(servedDir)
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	clients := min(b.w.clients, runtime.NumCPU())
	warm := drain(ctx, fl.front.url, clients, b.warm)
	cpu0, err := fl.cpuMillis()
	if err != nil {
		return nil, err
	}
	st0, err := fl.engineStats()
	if err != nil {
		return nil, err
	}
	samples, elapsed := closedLoop(ctx, fl.front.url, clients, time.Duration(b.seconds)*time.Second, b.next)
	cpu1, err := fl.cpuMillis()
	if err != nil {
		return nil, err
	}
	st1, err := fl.engineStats()
	if err != nil {
		return nil, err
	}
	rss, err := fl.peakRSSMB()
	if err != nil {
		return nil, err
	}

	wrong, failed := b.check(warm, samples)
	e2e := endToEnd(samples, elapsed, cpu1-cpu0, rss, setupS, storedBytes, b.rows())
	printMetrics(b.w.name, "end-to-end", e2e, endToEndUnits)
	fmt.Printf("  %-34s %14.6f ratio (%d of %d timed requests)\n", "error_ratio",
		float64(failed)/float64(max(len(samples), 1)), failed, len(samples))
	fmt.Printf("  latency samples: %d (%d above p99)\n", len(samples)-failed, (len(samples)-failed)/100)

	metrics, units := e2e, endToEndUnits
	if b.traced {
		layers, err := b.ladder(ctx, fl, e2e)
		if err != nil {
			return nil, err
		}
		for k, v := range admission(st0, st1, len(samples)-failed) {
			layers[k] = v
		}
		printMetrics(b.w.name, "per-layer", layers, perLayerUnits)
		metrics, units = layers, perLayerUnits
	}
	fl.stop()

	out := &result{Correct: wrong == 0, Attempted: len(samples), Failed: failed, Metrics: map[string]metric{}}
	for k, v := range metrics {
		out.Metrics[k] = metric{Value: v, Unit: units[k]}
	}
	prov["end_to_end"] = e2e
	prov["result"] = out
	name := fmt.Sprintf("%s-seed%d-trace%d.json", b.w.name, b.seed, boolInt(b.traced))
	if err := writeJSON(filepath.Join(b.work, "results", name), prov); err != nil {
		return nil, err
	}
	return out, nil
}

// setups writes the dataset and launches the fleet several times, stopping
// all but the last fleet, which it returns with every set-up's duration.
func (b *bench) setups(dir, logDir string) (*fleet, []float64, error) {
	var times []float64
	var fl *fleet
	for k := 0; k < setups; k++ {
		if fl != nil {
			fl.stop()
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
		start := time.Now()
		var err error
		if fl, err = b.setup(dir, logDir); err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return fl, times, nil
}

// check verifies every reply, warm-up included, now that timing is over.
// It returns the number of wrong answers and of failed timed requests (a
// transport error, a non-200 status or a wrong answer), and prints each
// class's result-cache hit share.
func (b *bench) check(warm, timed []sample) (wrong, failed int) {
	var firstErr error
	var hits, sent [numClasses]int
	for i, s := range append(warm, timed...) {
		isTimed := i >= len(warm)
		err := s.err
		if err == nil && s.status != 200 {
			err = fmt.Errorf("HTTP %d: %s", s.status, s.body)
		}
		if err == nil {
			var hit bool
			if hit, err = b.ref.verify(s.it.s, s.body); err != nil {
				wrong++
			} else if isTimed && hit {
				hits[s.it.s.cls]++
			}
		}
		if isTimed {
			sent[s.it.s.cls]++
			if err != nil {
				failed++
			}
		}
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		fmt.Fprintf(os.Stderr, "servebench: %d wrong answers, %d failed timed requests; first: %v\n", wrong, failed, firstErr)
	}
	for c := class(0); c < numClasses; c++ {
		fmt.Printf("  %-6s requests: %5d, result-cache hits: %5d (%.3f)\n", c, sent[c], hits[c], ratio(int64(hits[c]), int64(sent[c])))
	}
	return wrong, failed
}

// makeLists generates every request the run will send, and their reference
// answers, before anything is timed.
func (b *bench) makeLists() error {
	customers := tpch.Config{Scale: scale, Seed: b.seed}.CustomerRows()
	b.ref = newReference(b.db)
	toItems := func(ss []shape) []item {
		out := make([]item, len(ss))
		for i, s := range ss {
			out[i] = newItem(s)
		}
		return out
	}
	if b.w.hot {
		g := newGenerator(b.seed, 2, customers)
		shapes := g.hotShapes(hotShapes)
		b.hotItems = toItems(shapes)
		pick := func(idx []int) []item {
			out := make([]item, len(idx))
			for i, k := range idx {
				out[i] = b.hotItems[k]
			}
			return out
		}
		b.warm = pick(g.zipfStream(b.w.warm, hotShapes))
		b.hotStream = g.zipfStream(hotPerSecond*b.seconds, hotShapes)
		b.trace = pick(g.zipfStream(b.w.traced, hotShapes))
		return b.ref.add(shapes)
	}
	g := newGenerator(b.seed, 1, customers)
	seen := map[string]bool{}
	warm := g.fresh(b.w.warm, seen)
	timed := g.fresh(b.w.perSecond*b.seconds, seen)
	traced := g.fresh(b.w.traced, seen)
	b.warm, b.trace = toItems(warm), toItems(traced)
	for lap := 0; lap < strategyLaps; lap++ {
		rot := make([]shape, len(timed))
		for i, s := range timed {
			rot[i] = s.rotated(lap)
		}
		b.laps = append(b.laps, toItems(rot))
	}
	for _, ss := range [][]shape{warm, timed, traced} {
		if err := b.ref.add(ss); err != nil {
			return err
		}
	}
	return nil
}

// next returns the i-th request of the timed run. A fresh-shape list that
// runs out is replayed under the next strategy: the same answers, but
// different shapes to the server's caches.
func (b *bench) next(i int) *item {
	if b.w.hot {
		return &b.hotItems[b.hotStream[i%len(b.hotStream)]]
	}
	n := len(b.laps[0])
	return &b.laps[(i/n)%strategyLaps][i%n]
}

func (b *bench) rows() int64 {
	c := tpch.Config{Scale: scale, Seed: b.seed}
	return c.LineitemRows() + c.OrdersRows() + c.CustomerRows()
}

// csgen writes the dataset (sharded: the key-partitioned shard layout).
func (b *bench) csgen(dir string, sharded bool, logDir string) error {
	args := []string{"-dir", dir, "-scale", fmt.Sprint(scale), "-seed", fmt.Sprint(b.seed)}
	if sharded {
		args = append(args, "-shards", fmt.Sprint(shardCount), "-partition-key", partitionKey)
	}
	lf, err := os.OpenFile(filepath.Join(logDir, "csgen.log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	defer lf.Close()
	cmd := exec.Command(filepath.Join(b.bin, "csgen"), args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("csgen %v: %w", args, err)
	}
	return nil
}

// setup writes the served dataset and launches csserve on it with default
// flags (plus -dir and -addr; the coordinator also -coordinator and
// -shard-endpoints), returning once every /readyz answers 200.
func (b *bench) setup(dir, logDir string) (*fleet, error) {
	if err := b.csgen(dir, b.w.sharded, logDir); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	csserve := filepath.Join(b.bin, "csserve")
	fl := &fleet{}
	if !b.w.sharded {
		s, err := startServer(csserve, "engine", logDir, "-dir", dir)
		if err != nil {
			return nil, err
		}
		fl.procs, fl.engines, fl.front = []*server{s}, []*server{s}, s
		return fl, s.waitReady(ctx)
	}
	m, err := storage.LoadShardManifest(dir)
	if err != nil {
		return nil, err
	}
	var urls []string
	for k, d := range m.Dirs {
		s, err := startServer(csserve, fmt.Sprintf("shard-%d", k), logDir, "-dir", filepath.Join(dir, d))
		if err != nil {
			return fl, err
		}
		fl.procs = append(fl.procs, s)
		fl.engines = append(fl.engines, s)
		urls = append(urls, s.url)
	}
	for _, s := range fl.engines {
		if err := s.waitReady(ctx); err != nil {
			return fl, err
		}
	}
	c, err := startServer(csserve, "coordinator", logDir,
		"-coordinator", "-dir", dir, "-shard-endpoints", strings.Join(urls, ","))
	if err != nil {
		return fl, err
	}
	fl.procs = append(fl.procs, c)
	fl.front = c
	return fl, c.waitReady(ctx)
}

// ladder runs the traced replay and returns the per-layer metrics.
func (b *bench) ladder(ctx context.Context, fl *fleet, e2e map[string]float64) (map[string]float64, error) {
	budget := service.New(b.db, service.Config{}).Config().WorkerBudget
	l := &ladder{rec: newRecorder(), db: b.db, ref: b.ref, items: b.trace, workers: budget}
	shardRoot := ""
	if b.w.sharded {
		shardRoot = filepath.Join(b.runDir, "data", "served")
	}
	m, nodes, err := l.run(ctx, fl.front.url, shardRoot)
	if werr := l.rec.write(filepath.Join(b.work, "results",
		fmt.Sprintf("%s-seed%d-spans.json", b.w.name, b.seed))); werr != nil && err == nil {
		err = werr
	}
	if err != nil {
		return nil, err
	}
	m["trace.overhead_us"] = (m["served.p50_ms"] - e2e["latency_p50_ms"]) * 1e3
	printLadder(b.w.name, m, nodes, b.w.sharded)
	return m, nil
}

// endToEnd computes the end-to-end metrics of one timed run.
func endToEnd(samples []sample, elapsed time.Duration, cpuMS, rssMB float64, setupS []float64, storedBytes, rows int64) map[string]float64 {
	var all []float64
	byClass := make([][]float64, numClasses)
	for _, s := range samples {
		if s.err != nil || s.status != 200 {
			continue
		}
		ms := float64(s.lat) / 1e6
		all = append(all, ms)
		byClass[s.it.s.cls] = append(byClass[s.it.s.cls], ms)
	}
	n := float64(len(all))
	return map[string]float64{
		"qps":                  n / elapsed.Seconds(),
		"latency_p50_ms":       percentile(all, 0.50),
		"latency_p99_ms":       percentile(all, 0.99),
		"select_p50_ms":        percentile(byClass[clsSelect], 0.50),
		"agg_p50_ms":           percentile(byClass[clsAgg], 0.50),
		"join_p50_ms":          percentile(byClass[clsJoin], 0.50),
		"cpu_ms_per_query":     cpuMS / math.Max(n, 1),
		"server_rss_mb":        rssMB,
		"setup_s":              percentile(setupS, 0.50),
		"stored_bytes_per_row": float64(storedBytes) / float64(rows),
	}
}

// admission turns the engines' /stats deltas over the timed run into
// per-query admission metrics.
func admission(a, b []service.Stats, completed int) map[string]float64 {
	var queued, granted int64
	for i := range a {
		queued += b[i].Admission.QueuedNanos - a[i].Admission.QueuedNanos
		granted += b[i].Admission.WorkersGranted - a[i].Admission.WorkersGranted
	}
	q := float64(max(completed, 1))
	return map[string]float64{
		"admission.queue_ms_per_query": float64(queued) / 1e6 / q,
		"admission.workers_per_query":  float64(granted) / q,
	}
}

// percentile is the nearest-rank percentile of xs (0 when empty).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(k, len(s)-1))]
}

func p50(xs []float64) float64 { return percentile(xs, 0.5) }

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}

// provenance records where and how the run was made.
func provenance(b *bench) map[string]any {
	return map[string]any{
		"workload":   b.w.name,
		"seed":       b.seed,
		"seconds":    b.seconds,
		"scale":      scale,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"git_commit": gitCommit(b.root),
		"clients":    min(b.w.clients, runtime.NumCPU()),
	}
}

func cpuModel() string {
	raw, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit returns the checkout's commit when root is the top of a git
// work tree, "unknown" otherwise (an exported checkout carries no history).
func gitCommit(root string) string {
	abs, err := filepath.Abs(root)
	if err != nil {
		return "unknown"
	}
	top, err := exec.Command("git", "-C", abs, "rev-parse", "--show-toplevel").Output()
	if err != nil || filepath.Clean(strings.TrimSpace(string(top))) != abs {
		return "unknown"
	}
	head, err := exec.Command("git", "-C", abs, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(head))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
