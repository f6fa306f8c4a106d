package main

import (
	"fmt"
	"slices"

	"rendezvous/internal/simulator"
)

// Per-layer metrics of a traced run. Each is named by the module it
// measures and is measured from outside, by timing calls into that
// module's public functions (replay) or reading its public counters.

// layerUnits fixes every per-layer metric's unit; a traced run prints
// all of them, 0 where the workload gives the layer no work.
var layerUnits = []struct{ name, unit string }{
	{"serve.submit_us", "us"},
	{"serve.fetch_us", "us"},
	{"serve.resp_kb", "KiB"},
	{"serve.overhead_ms", "ms"},
	{"serve.sched_us", "us"},
	{"serve.wait_ms", "ms"},
	{"serve.encode_ms", "ms"},
	{"serve.sessions_opened", "count"},
	{"serve.sessions_reused", "count"},
	{"schedule.new_us", "us"},
	{"scenario.build_ms", "ms"},
	{"scenario.summarize_ms", "ms"},
	{"scenario.graph_ms", "ms"},
	{"simulator.engine_ms", "ms"},
	{"simulator.first_run_ms", "ms"},
	{"simulator.plan_ms", "ms"},
	{"simulator.replan_ms", "ms"},
	{"simulator.run_ms", "ms"},
	{"simulator.agent_slots_per_s", "1/s"},
	{"simulator.meetings", "count"},
	{"simulator.meetings_list_ms", "ms"},
	{"simulator.route.pairwise", "count"},
	{"simulator.route.sharded", "count"},
	{"simulator.route.inverted", "count"},
	{"simulator.route.inverted-wide", "count"},
	{"simulator.route.sparse", "count"},
	{"tablecache.hits", "count"},
	{"tablecache.misses", "count"},
	{"tablecache.hit_ratio", "ratio"},
	{"tablecache.evictions", "count"},
	{"tablecache.bytes", "MiB"},
	{"runtime.gc_cycles", "count"},
	{"runtime.gc_pause_ms", "ms"},
	{"trace.overhead_pct", "%"},
}

// median returns the median of unsorted values (0 when empty).
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// mean returns the mean of values (0 when empty).
func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

// perLayer computes the per-layer metrics from the window's traced
// rounds, its untraced rounds (the tracing-overhead baseline), the
// counters around the window, and a replay of the traced specs.
func (r *run) perLayer(h *harness, tr *tracer, win windowResult, c0, c1 counters) map[string]metric {
	out := map[string]metric{}
	for _, l := range layerUnits {
		out[l.name] = metric{0, l.unit}
	}
	set := func(name string, v float64) { out[name] = metric{v, out[name].Unit} }

	jobs := float64(len(win.jobs))
	var submit, fetch, wait, lat, base []float64
	var respBytes float64
	var traced []jobSample
	for _, s := range win.jobs {
		if !s.traced {
			base = append(base, ms(s.latency))
			continue
		}
		traced = append(traced, s)
		submit = append(submit, float64(s.submit.Nanoseconds())/1e3)
		fetch = append(fetch, float64(s.fetch.Nanoseconds())/1e3)
		wait = append(wait, ms(s.wait))
		lat = append(lat, ms(s.latency))
		respBytes += float64(s.respBytes)
	}
	var sched []float64
	for _, d := range win.scheds {
		if d.traced {
			sched = append(sched, float64(d.d.Nanoseconds())/1e3)
		}
	}
	set("serve.submit_us", median(submit))
	set("serve.fetch_us", median(fetch))
	set("serve.wait_ms", median(wait))
	set("serve.sched_us", median(sched))
	set("serve.resp_kb", respBytes/float64(max(len(traced), 1))/1024)
	m0, m1 := c0.stats.Manager, c1.stats.Manager
	set("serve.sessions_opened", float64(m1.SessionsOpened-m0.SessionsOpened))
	set("serve.sessions_reused", float64(m1.SessionsReused-m0.SessionsReused))
	hits := float64(c1.stats.Cache.Hits - c0.stats.Cache.Hits)
	misses := float64(c1.stats.Cache.Misses - c0.stats.Cache.Misses)
	set("tablecache.hits", hits)
	set("tablecache.misses", misses)
	if hits+misses > 0 {
		set("tablecache.hit_ratio", hits/(hits+misses))
	}
	set("tablecache.evictions", float64(c1.stats.Cache.Evictions-c0.stats.Cache.Evictions))
	set("tablecache.bytes", float64(c1.stats.Cache.Bytes)/(1<<20))
	set("runtime.gc_cycles", float64(c1.gcs-c0.gcs)/jobs)
	set("runtime.gc_pause_ms", float64(c1.pauseNs-c0.pauseNs)/1e6/jobs)
	if len(base) > 0 && len(lat) > 0 {
		// Means, not medians: both halves run the same mix of jobs, and
		// a median of a mix jumps between the jobs on either side of it.
		set("trace.overhead_pct", 100*(mean(lat)/mean(base)-1))
	}

	// Replay the distinct specs of the traced rounds, weighting each by
	// the jobs it ran in them.
	count := map[string]int{}
	var labels []string
	for _, s := range traced {
		if count[s.label] == 0 && (r.wl.replayCap == 0 || len(labels) < r.wl.replayCap) {
			labels = append(labels, s.label)
		}
		count[s.label]++
	}
	replays := map[string]replayStats{}
	var wsum, agentSum float64
	var newSched, build, engine, first, plan, replan, run, summ, graph, meet, meetList, enc, slots, runSec float64
	for _, label := range labels {
		s := h.results[label]
		r.attempted++
		st, err := replay(tr, s.job, s.id)
		if err != nil {
			r.opFailures([]string{fmt.Sprintf("replay %s: %v", label, err)})
			continue
		}
		if string(st.result) != string(s.result) {
			r.opFailures([]string{fmt.Sprintf("replay %s: replayed result differs from the served one", label)})
		}
		replays[label] = st
		w := float64(max(count[label], 1))
		wsum += w
		agentSum += w * float64(st.agents)
		newSched += w * float64(st.sched.Nanoseconds()) / 1e3
		build += w * ms(st.build-st.sched)
		engine += w * ms(st.open-st.build)
		first += w * ms(st.first)
		plan += w * ms(st.first-st.warm)
		run += w * ms(st.warm)
		if st.switched > 0 {
			replan += w * ms(st.switched-st.warm)
		}
		summ += w * ms(st.summarize)
		graph += w * ms(st.graph)
		meet += w * float64(st.metCount)
		meetList += w * ms(st.meetings)
		enc += w * ms(st.encode)
		slots += w * float64(st.agents) * float64(st.horizon)
		runSec += w * st.warm.Seconds()
		// The route the server takes in the window: a cold job's only
		// run is its first; warm jobs run settled sessions.
		route := st.warmRoute
		if !r.wl.static {
			route = st.firstRoute
		}
		if route != simulator.RouteNone {
			name := "simulator.route." + route.String()
			if _, ok := out[name]; ok {
				set(name, out[name].Value+1)
			}
		}
	}
	if wsum == 0 {
		return out
	}
	set("schedule.new_us", newSched/agentSum)
	set("scenario.build_ms", build/wsum)
	set("simulator.engine_ms", engine/wsum)
	set("simulator.first_run_ms", first/wsum)
	set("simulator.plan_ms", plan/wsum)
	set("simulator.replan_ms", replan/wsum)
	set("simulator.run_ms", run/wsum)
	set("scenario.summarize_ms", summ/wsum)
	set("scenario.graph_ms", graph/wsum)
	set("simulator.meetings", meet/wsum)
	set("simulator.meetings_list_ms", meetList/wsum)
	set("serve.encode_ms", enc/wsum)
	if runSec > 0 {
		set("simulator.agent_slots_per_s", slots/runSec)
	}
	// Serve overhead: job latency minus the replayed work the server did
	// for it (a settled run right after one at the pair horizon, or for
	// cold jobs the open and first run), plus summarize, meetings and
	// encoding.
	var over []float64
	for _, s := range traced {
		st, ok := replays[s.label]
		if !ok {
			continue
		}
		work := st.warm
		if st.switched > 0 {
			work = st.switched
		}
		if !r.wl.static {
			work = st.builderFor + st.open + st.first
		}
		work += st.summarize + st.meetings + st.encode
		over = append(over, ms(s.latency-work))
	}
	set("serve.overhead_ms", median(over))
	return out
}
