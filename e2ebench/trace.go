package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sync"
	"time"

	"rendezvous/internal/scenario"
	"rendezvous/internal/schedule"
	"rendezvous/internal/serve"
	"rendezvous/internal/simulator"
	"rendezvous/internal/tablecache"
)

// Spans are recorded by the benchmark around its calls into each layer
// and kept in memory until the run writes them out.

// span is one timed call. Counter deltas are read only on replay
// spans, where the calls are sequential; on HTTP spans they would mix
// in whatever the server did meanwhile.
type span struct {
	ID     int
	Parent int // -1 for a root
	Name   string
	Job    string `json:",omitempty"`
	Start  int64  // ns since the tracer started
	End    int64
	Self   int64 // End−Start minus the time its children cover
	// Counted spans: table-cache and heap-allocation deltas.
	Counted     bool   `json:",omitempty"`
	CacheHits   int64  `json:",omitempty"`
	CacheMisses int64  `json:",omitempty"`
	AllocBytes  uint64 `json:",omitempty"`
}

// tracer collects spans. A nil tracer records nothing, which is how
// untraced runs call the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	cache *tablecache.Cache // the cache counted spans read; set by replay
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int, job string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Job: job, Start: now})
	return len(t.spans) - 1
}

// beginCounted opens a span that also records table-cache and heap
// allocation deltas; its caller must not run concurrently with other
// counted spans.
func (t *tracer) beginCounted(name string, parent int, job string) int {
	if t == nil {
		return -1
	}
	id := t.begin(name, parent, job)
	st := t.cache.Stats()
	t.mu.Lock()
	sp := &t.spans[id]
	sp.Counted, sp.CacheHits, sp.CacheMisses, sp.AllocBytes = true, -st.Hits, -st.Misses, heapAllocs()
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	counted := t.spans[id].Counted
	t.mu.Unlock()
	var st tablecache.Stats
	var alloc uint64
	if counted {
		st, alloc = t.cache.Stats(), heapAllocs()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	sp := &t.spans[id]
	sp.End = now
	if counted {
		sp.CacheHits += st.Hits
		sp.CacheMisses += st.Misses
		sp.AllocBytes = alloc - sp.AllocBytes
	}
}

// spanSummary aggregates the spans of one name.
type spanSummary struct {
	Name    string
	Count   int
	TotalMs float64
	SelfMs  float64
}

// finish computes every span's self time and the per-name totals.
func (t *tracer) finish() []spanSummary {
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	var order []string
	by := map[string]*spanSummary{}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered[i]
		sum := by[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			by[s.Name] = sum
			order = append(order, s.Name)
		}
		sum.Count++
		sum.TotalMs += float64(s.End-s.Start) / 1e6
		sum.SelfMs += float64(s.Self) / 1e6
	}
	out := make([]spanSummary, len(order))
	for i, name := range order {
		out[i] = *by[name]
	}
	return out
}

// writeTrace writes the spans and their summary as JSON.
func (t *tracer) writeTrace(path string) error {
	sum := t.finish()
	b, err := json.Marshal(struct {
		Summary []spanSummary
		Spans   []span
	}{sum, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// heapAllocs reads the cumulative heap allocation counter.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// timingBuilder wraps a scenario.Builder and sums the time spent in
// per-agent schedule construction.
type timingBuilder struct {
	inner scenario.Builder
	total time.Duration
}

func (b *timingBuilder) build(set []int, agent int) (schedule.Schedule, error) {
	t := time.Now()
	s, err := b.inner(set, agent)
	b.total += time.Since(t)
	return s, err
}

// replayStats is one spec's replay of the calls serve makes.
type replayStats struct {
	agents, horizon             int
	builderFor, build, sched    time.Duration
	open, graph                 time.Duration
	first, warm                 time.Duration
	switched                    time.Duration // a run right after one at the pair horizon
	summarize, meetings, encode time.Duration
	firstRoute, warmRoute       simulator.Route
	metCount                    int
	result                      []byte // the replayed Result, as serve encodes it
}

// settleRuns is how many runs between the first and the timed warm ones
// let a calibrated engine settle its route (two rents, one probe), and
// warmRuns how many warm runs (and switched runs) the replay takes the
// median of.
const (
	settleRuns = 2
	warmRuns   = 3
)

// replay repeats, on a Fleet and Session the benchmark owns and a fresh
// table cache, the calls serve makes for a job: BuilderFor,
// Scenario.Build (through a timing Builder), Scenario.Open, the first
// and then warm Session.RunParallelEnv calls, Fleet.Summarize, the
// meetings list, and the JSON encoding of the response. A spec whose
// shape alternates horizons in the window also times warm runs right
// after one at the pair horizon, as the server runs it.
func replay(tr *tracer, j *jobSpec, id string) (replayStats, error) {
	cache := tablecache.New(tablecache.DefaultBudget)
	prev := simulator.SetTableCache(cache)
	defer simulator.SetTableCache(prev)
	tr.cache = cache

	spec := j.spec
	sc := spec.Scenario
	st := replayStats{agents: sc.Agents, horizon: sc.Horizon}
	root := tr.beginCounted("replay", -1, j.label)
	defer tr.end(root)
	timed := func(name string, d *time.Duration, f func()) {
		sp := tr.beginCounted(name, root, j.label)
		t := time.Now()
		f()
		*d = time.Since(t)
		tr.end(sp)
	}

	var build scenario.Builder
	var err error
	timed("scenario.BuilderFor", &st.builderFor, func() { build, err = scenario.BuilderFor(spec.Alg, sc.N, sc.Seed) })
	if err != nil {
		return st, err
	}
	tb := &timingBuilder{inner: build}
	timed("scenario.Build", &st.build, func() { _, _, err = sc.Build(tb.build) })
	if err != nil {
		return st, err
	}
	st.sched = tb.total
	var fl *scenario.Fleet
	timed("scenario.Open", &st.open, func() { fl, err = sc.Open(tb.build) })
	if err != nil {
		return st, err
	}
	defer fl.Close()
	if sc.Grid.Side > 0 {
		timed("scenario.Graph", &st.graph, func() { fl.Graph() })
	}
	sess := fl.Eng.Session()
	workers := max(spec.EngineWorkers, 1)
	var res *simulator.Result
	runAt := func(horizon int) func() {
		return func() { res = sess.RunParallelEnv(horizon, workers, fl.Env) }
	}
	run := runAt(sc.Horizon)
	timed("simulator.run.first", &st.first, run)
	st.firstRoute = fl.Eng.LastRoute()
	var settle time.Duration
	for range settleRuns {
		timed("simulator.run.settle", &settle, run)
	}
	warm := make([]float64, warmRuns)
	for k := range warm {
		var d time.Duration
		timed("simulator.run.warm", &d, run)
		warm[k] = float64(d)
	}
	st.warm = time.Duration(median(warm))
	st.warmRoute = fl.Eng.LastRoute()
	if j.pair > 0 {
		var other time.Duration
		for k := range warm {
			timed("simulator.run.other", &other, runAt(j.pair))
			var d time.Duration
			timed("simulator.run.switched", &d, run)
			warm[k] = float64(d)
		}
		st.switched = time.Duration(median(warm))
	}
	st.metCount = res.MetCount()
	var cov scenario.Coverage
	timed("scenario.Summarize", &st.summarize, func() { cov = fl.Summarize(res, sc.Horizon) })
	out := &serve.JobResult{Coverage: cov, MetFrac: cov.MetFrac()}
	if spec.IncludeMeetings {
		timed("simulator.Meetings", &st.meetings, func() {
			ms := res.Meetings()
			if len(ms) > serve.MaxMeetings {
				ms, out.Truncated = ms[:serve.MaxMeetings], true
			}
			out.Meetings = ms
		})
	}
	timed("serve.encode", &st.encode, func() {
		_, err = json.Marshal(serve.JobResponse{ID: id, Status: serve.StatusDone, Result: out})
	})
	if err != nil {
		return st, fmt.Errorf("encode: %w", err)
	}
	st.result, err = json.Marshal(out)
	return st, err
}
