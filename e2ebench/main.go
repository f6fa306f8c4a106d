// Command e2ebench is the end-to-end benchmark of rvserve. It starts
// serve.NewServer in-process on a loopback listener, drives it with a
// closed loop of one caller over a keep-alive connection, checks every
// result against a brute-force oracle, and prints one JSON line of
// metrics. See README.md for the workloads, metrics and commands.
//
//	e2ebench --workload serve-warm --seed 1 --seconds 40 --trace 0
//	e2ebench steady --workload serve-warm --runs 5 --seconds 40
//	e2ebench compare .bench_out/run-a.json .bench_out/run-b.json
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"

	"rendezvous/internal/serve"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			os.Exit(steadyMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// outDir holds every run's record, hash list and trace, relative to the
// checkout the benchmark runs in.
const outDir = ".bench_out"

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// hashEntry is one line of a run's hash list.
type hashEntry struct {
	Label  string
	JobID  string
	SHA256 string
	Jobs   int
}

// record is everything a run writes beside its result line.
type record struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    int
	Result   result
	Probe    probe
	// Latency describes all job latencies of the timed window: their
	// plain median and 90th percentile, and the highest percentile with
	// at least ten samples beyond it.
	Latency struct {
		P50Ms, P90Ms float64
		Percentile   float64
		TailMs       float64
		Samples      int
	}
	// Rounds is how many rounds the timed window ran.
	Rounds int
	// LabelMs is each spec's median job latency in the timed window.
	LabelMs map[string]float64
	SetupS  []float64
	// PhaseS is the wall time of each phase of the run.
	PhaseS   map[string]float64
	Hashes   []hashEntry
	Failures []string `json:",omitempty"`
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: serve-small, serve-warm or serve-cold")
	seed := fs.Uint64("seed", 1, "workload seed; the same seed sends the same requests")
	seconds := fs.Float64("seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1: traced run printing the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	wl, err := newWorkload(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 2
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	rec := &record{Workload: wl.name, Seed: *seed, Seconds: *seconds, Trace: *trace}
	rec.Probe.ALUStartNs = aluProbe()
	r := &run{wl: wl, seed: *seed, rec: rec, traced: *trace == 1,
		tracePath: filepath.Join(outDir, fmt.Sprintf("trace-%s-s%d.json", wl.name, *seed))}
	res, err := r.execute(*seconds)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		return 1
	}
	rec.Probe.ALUEndNs = aluProbe()
	rec.Probe.MemNs = memProbe()
	rec.Result = res
	fmt.Fprintf(os.Stderr, "e2ebench: %s seed %d: probe alu %.3f/%.3f ns/op, mem %.1f ns/load; jobs p50 %.3g ms, p90 %.3g ms, p%.2f %.3g ms over %d; set-up median %.3g s of %d; phases %.3v s\n",
		wl.name, *seed, rec.Probe.ALUStartNs, rec.Probe.ALUEndNs, rec.Probe.MemNs, rec.Latency.P50Ms, rec.Latency.P90Ms, rec.Latency.Percentile, rec.Latency.TailMs, rec.Latency.Samples,
		median(rec.SetupS), len(rec.SetupS), rec.PhaseS)
	for i, f := range rec.Failures {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "e2ebench: … %d more failures\n", len(rec.Failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "e2ebench: FAIL", f)
	}
	b, err := json.MarshalIndent(rec, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, fmt.Sprintf("run-%s-s%d-t%d.json", wl.name, *seed, *trace)), b, 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: write record:", err)
		return 1
	}
	line, _ := json.Marshal(res) // maps of float64 fields always marshal
	fmt.Println(string(line))
	return 0
}

// run is one invocation's state.
type run struct {
	wl        *workload
	seed      uint64
	rec       *record
	traced    bool
	tracePath string

	attempted, failed int
	correct           bool
}

// phase records the wall time of a phase that began at t.
func (r *run) phase(name string, t time.Time) {
	if r.rec.PhaseS == nil {
		r.rec.PhaseS = map[string]float64{}
	}
	r.rec.PhaseS[name] += time.Since(t).Seconds()
}

// check counts one run-level check (a drain, the drain accounting, a
// warm window's session count) as an operation, failed unless ok. A
// failed one also marks the run incorrect: it speaks of the server as a
// whole, not of one job.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	r.correct = false
	r.rec.Failures = append(r.rec.Failures, "run: "+fmt.Sprintf(format, args...))
}

// opFailures counts failed operations.
func (r *run) opFailures(fails []string) {
	r.failed += len(fails)
	r.rec.Failures = append(r.rec.Failures, fails...)
}

// counters are the GC and server readings taken at the edges of a
// timed window.
type counters struct {
	gcs     uint32
	pauseNs uint64
	stats   serve.StatsResponse
}

func (h *harness) read() (counters, error) {
	var c counters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.gcs, c.pauseNs = ms.NumGC, ms.PauseTotalNs
	st, err := h.stats()
	c.stats = st
	return c, err
}

// execute sets up, runs the timed window, checks every result, and
// drains.
func (r *run) execute(seconds float64) (result, error) {
	r.correct = true
	setups := r.wl.setups
	if r.traced {
		setups = 1
	}
	var h *harness
	var results map[string]*specResult
	var order []string
	for range setups {
		if h != nil {
			r.checkDrain(h.stop())
			// Hand the stopped server's memory back before the next set-up,
			// so the peak RSS is one server's, not two half-collected ones.
			debug.FreeOSMemory()
		}
		t0 := time.Now()
		var err error
		if h, err = startServer(r.wl); err != nil {
			return result{}, err
		}
		if results != nil {
			h.results, h.order = results, order
		}
		if err := h.warmUp(); err != nil {
			h.stop()
			return result{}, err
		}
		r.rec.SetupS = append(r.rec.SetupS, time.Since(t0).Seconds())
		results, order = h.results, h.order
	}
	r.attempted += setups * r.wl.warmPasses * len(r.wl.specs)
	t0 := time.Now()

	var c0, c1 counters
	var tr *tracer
	if r.traced {
		tr = newTracer()
	}
	var err error
	if c0, err = h.read(); err != nil {
		h.stop()
		return result{}, err
	}
	win := h.window(seconds, tr)
	if c1, err = h.read(); err != nil {
		h.stop()
		return result{}, err
	}
	// The peak RSS is read here: the checks below derive whole fleets
	// again, which is the benchmark's memory, not the server's.
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		h.stop()
		return result{}, fmt.Errorf("getrusage: %w", err)
	}
	r.attempted += win.attempted
	r.opFailures(win.failures)
	if r.wl.static {
		opened := c1.stats.Manager.SessionsOpened - c0.stats.Manager.SessionsOpened
		r.check(opened == 0, "%d sessions opened during the timed window of a warm workload", opened)
	}
	if win.completed == 0 {
		h.stop()
		return result{}, fmt.Errorf("no job completed in the timed window (%d failures: %v)", len(win.failures), win.failures)
	}

	r.phase("window", t0)
	t0 = time.Now()
	if r.wl.verifyAfter {
		n, fails := h.verify()
		r.attempted += n
		r.opFailures(fails)
		r.phase("verify", t0)
		t0 = time.Now()
	}
	r.checkResults(h)
	r.phase("check", t0)

	var layers map[string]metric
	if r.traced {
		t0 = time.Now()
		layers = r.perLayer(h, tr, win, c0, c1)
		if err := tr.writeTrace(r.tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: write trace:", err)
		}
		r.phase("replay", t0)
	}
	t0 = time.Now()
	rep := h.stop()
	r.checkDrain(rep)
	st := h.srv.Manager().Stats()
	left := rep.Done + rep.Failed + rep.Aborted + rep.Canceled
	r.check(int(st.JobsEvicted)+left == h.jobsSent,
		"drain accounts for %d deleted + %d left jobs, %d were submitted", st.JobsEvicted, left, h.jobsSent)
	r.phase("drain", t0)
	for _, label := range h.order {
		s := h.results[label]
		r.rec.Hashes = append(r.rec.Hashes, hashEntry{Label: label, JobID: s.id, SHA256: s.sum, Jobs: s.jobs})
	}
	sort.Slice(r.rec.Hashes, func(i, j int) bool { return r.rec.Hashes[i].Label < r.rec.Hashes[j].Label })

	var lat []float64
	r.rec.LabelMs = map[string]float64{}
	for l, v := range win.lat {
		lat = append(lat, v...)
		r.rec.LabelMs[l] = median(v)
	}
	slices.Sort(lat)
	lr := &r.rec.Latency
	lr.P50Ms, lr.P90Ms, lr.Samples = quantile(lat, 0.5), quantile(lat, 0.9), len(lat)
	if n := len(lat); n >= 40 {
		p := 1 - 10/float64(n)
		lr.Percentile, lr.TailMs = 100*p, quantile(lat, p)
	}
	r.rec.Rounds = len(win.marks) - 1
	out := result{Correct: r.correct, Attempted: r.attempted, Failed: r.failed}
	if r.traced {
		out.Metrics = layers
		return out, nil
	}
	out.Metrics = windowMetrics(win)
	out.Metrics["setup_s"] = metric{median(r.rec.SetupS), "s"}
	out.Metrics["peak_rss_mb"] = metric{float64(ru.Maxrss) / 1024, "MiB"}
	return out, nil
}

// costWindows is how many stretches of whole rounds, at most, the
// window's CPU time and allocation are cut into.
const costWindows = 10

// windowMetrics computes the window's end-to-end metrics.
//
// The host this runs on takes its CPUs away for tens of milliseconds at
// a time, on some rounds and not others. So jobs_per_s is the median
// over the window's rounds, each of which sends the same operations: a
// stall moves the rounds it hits, not the median. For the same reason
// job_p50_ms is the job-weighted median of each spec's median latency,
// which a stall on a few of a spec's jobs does not move. CPU time and
// allocation per job are medians over costWindows stretches of whole
// rounds instead: a stretch is long enough to hold its share of garbage
// collections, which land in a few rounds only, and of the program's
// sporadic large allocations, whose count varies from run to run.
func windowMetrics(win windowResult) map[string]metric {
	var rate, cpu, alloc []float64
	for k := 1; k < len(win.marks); k++ {
		a, b := win.marks[k-1], win.marks[k]
		if n := float64(b.jobs - a.jobs); n > 0 {
			rate = append(rate, n/(b.at-a.at).Seconds())
		}
	}
	g := max(1, (len(win.marks)-1)/costWindows) // rounds per stretch
	for k := g; k < len(win.marks); k += g {
		a, b := win.marks[k-g], win.marks[k]
		if n := float64(b.jobs - a.jobs); n > 0 {
			cpu = append(cpu, ms(b.cpu-a.cpu)/n)
			alloc = append(alloc, float64(b.allocs-a.allocs)/1e6/n)
		}
	}
	var specs []weighted
	for _, v := range win.lat {
		specs = append(specs, weighted{median(v), float64(len(v))})
	}
	return map[string]metric{
		"jobs_per_s":       {median(rate), "jobs/s"},
		"job_p50_ms":       {weightedMedian(specs), "ms"},
		"sched_p50_us":     {median(win.sched), "us"},
		"cpu_ms_per_job":   {median(cpu), "ms"},
		"alloc_mb_per_job": {median(alloc), "MB"},
	}
}

// weighted is a value with a weight.
type weighted struct{ v, w float64 }

// weightedMedian places each value at the midpoint of its weight's
// share of the total, in value order, and interpolates linearly at one
// half.
func weightedMedian(xs []weighted) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.SortFunc(xs, func(a, b weighted) int { return cmp.Compare(a.v, b.v) })
	total := 0.0
	for _, x := range xs {
		total += x.w
	}
	cum, prevAt, prev := 0.0, 0.0, xs[0].v
	for i, x := range xs {
		at := (cum + x.w/2) / total
		if at >= 0.5 {
			if i == 0 {
				return x.v
			}
			return prev + (x.v-prev)*(0.5-prevAt)/(at-prevAt)
		}
		cum += x.w
		prevAt, prev = at, x.v
	}
	return prev
}

// checkDrain checks a drain report: no table-cache pin may survive the
// drain.
func (r *run) checkDrain(rep serve.DrainReport) {
	r.check(rep.Pinned == 0, "drain left %d pinned table-cache entries", rep.Pinned)
}

// checkResults runs the brute-force checks on every distinct spec,
// spread over the cores the window has released. A spec whose result
// fails counts every job that returned it as failed.
func (r *run) checkResults(h *harness) {
	errs := make([]error, len(h.order))
	next := make(chan int)
	var wg sync.WaitGroup
	for range runtime.GOMAXPROCS(0) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = checkSpec(h.results[h.order[i]], derive(r.seed, streamSample, uint64(i)))
			}
		}()
	}
	for i := range h.order {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			label := h.order[i]
			r.opFailures([]string{fmt.Sprintf("%s: %v", label, err)})
			r.failed += h.results[label].jobs - 1
		}
	}
}

// sampledPairs is how many eligible pairs the sampled check brute-forces
// per spec.
const sampledPairs = 48

// checkSpec checks one distinct spec's result.
func checkSpec(s *specResult, seed uint64) error {
	got, err := decodeResult(s.result)
	if err != nil {
		return err
	}
	f, err := deriveFleet(s.job.spec)
	if err != nil {
		return err
	}
	if !s.job.spec.IncludeMeetings {
		// Timed jobs of a verifyAfter workload carry no meetings: their
		// coverage must equal the verification request's, whose
		// meetings are checked below.
		v, err := decodeResult(s.verified)
		if err != nil {
			return fmt.Errorf("verification: %w", err)
		}
		if v.Coverage != got.Coverage || v.MetFrac != got.MetFrac {
			return fmt.Errorf("coverage %+v differs from the IncludeMeetings request's %+v", got.Coverage, v.Coverage)
		}
		got = v
	}
	if len(f.agents) <= fullCheckAgents || (!got.Truncated && len(f.agents) <= completeCheckAgents) {
		err = checkFull(f, got)
	} else {
		err = checkSampled(f, got, seed, sampledPairs)
	}
	if err == nil && s.job.pastBound {
		err = checkPaperBound(f, got)
	}
	return err
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile interpolates the q-quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}
