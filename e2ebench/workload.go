package main

import (
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"sort"

	"rendezvous/internal/scenario"
	"rendezvous/internal/serve"
)

// A workload is a closed loop of one caller replaying rounds of
// operations: a round is a list of jobs, each preceded by one
// POST /v1/schedule read. Every input is a pure function of the
// workload seed, so two runs with the same seed send the same requests.
//
// One caller, not one per core: with two callers on one job worker, a
// job's latency is mostly the wait behind whichever job the other caller
// queued ahead of it, and that interleaving moved job_p50_ms and
// job_p90_ms by 13–18% between runs of serve-small, and jobs_per_s by
// 28–40% on serve-cold, where two concurrent builds also contend for the
// two cores.

// jobSpec is one distinct job request of a workload.
type jobSpec struct {
	// label names the spec in the hash list and the trace, e.g.
	// "d1024/h8192"; shape names the fleet behind it.
	label, shape string
	spec         serve.JobSpec
	body         []byte // the POST /v1/jobs request body
	// pastBound marks the static-spectrum ours fleet whose horizon is
	// past the paper's rendezvous bound: every eligible pair must meet.
	pastBound bool
	// pair is the other horizon of its shape, which every round
	// alternates with this one (0: none), so each served job of the spec
	// runs on a session whose last run was at the pair horizon.
	pair int
}

// schedReq is one POST /v1/schedule request.
type schedReq struct {
	req  serve.ScheduleRequest
	body []byte
}

// op is one job of a round plus the schedule read issued before it.
type op struct {
	job   *jobSpec
	sched schedReq
}

// workload describes one traffic mix.
type workload struct {
	name    string
	workers int // serve job workers
	// setups is how many times a run starts the server (each on a fresh
	// table cache) to take the median set-up time.
	setups int
	// warmPasses is how many times set-up serves every spec before the
	// timed window (0: no warm-up). Two passes open every session and
	// settle every calibrated route: a banded engine rents pairwise on
	// its first two runs, probes the joint scan on its third, and keeps
	// the verdict from the fourth on.
	warmPasses int
	// static reports whether the timed window must open no session.
	static bool
	// verifyAfter asks for one IncludeMeetings request per distinct spec
	// after the window, whose meetings the brute-force checks read; the
	// timed jobs then stay scan-bound.
	verifyAfter bool
	// replayCap bounds how many distinct specs the traced run replays
	// (0: all of them).
	replayCap int
	// specs lists every distinct spec of a static catalog, in catalog
	// order (empty for serve-cold, whose specs are all fresh).
	specs []*jobSpec
	// round returns the operations of round r.
	round func(r int) []op
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"serve-small", "serve-warm", "serve-cold"}

// mix64 is the SplitMix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// derive mixes a stream tag and indices into the workload seed, so each
// class of decision draws from its own stream.
func derive(seed uint64, parts ...uint64) uint64 {
	h := mix64(seed)
	for _, p := range parts {
		h = mix64(h ^ mix64(p+0x632BE59BD9B4E019))
	}
	return h
}

// Derivation streams.
const (
	streamFleet = iota + 1
	streamSched
	streamCold
	streamSample
)

// newWorkload builds the named workload for a seed.
func newWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "serve-small":
		return smallWorkload(seed), nil
	case "serve-warm":
		return warmWorkload(seed), nil
	case "serve-cold":
		return coldWorkload(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// networkScenario is the NETWORK experiment's fleet: 128 channels, K=4,
// wakes spread over 2,000 slots, a quarter of the fleet leaving after
// life/4 to life slots, and 8 primary users each holding a channel half
// of every 1,024-slot window. The lifetimes are part of the fleet shape,
// so specs that share a shape at two horizons pass the same life.
func networkScenario(agents, horizon, life int, seed uint64) scenario.Scenario {
	return scenario.Scenario{
		N: 128, Agents: agents, K: 4, Seed: seed, Horizon: horizon,
		Churn: scenario.Churn{WakeSpread: 2000, LeaveFrac: 0.25, MinLife: life / 4, MaxLife: life},
		PU:    scenario.PrimaryUsers{Count: 8, Window: 1024, OnFrac: 0.5},
	}
}

// newJob finalizes a spec: the request body is encoded once, up front.
func newJob(label, shape string, spec serve.JobSpec) *jobSpec {
	body, err := json.Marshal(spec)
	if err != nil {
		panic(fmt.Sprintf("marshal job spec: %v", err)) // plain structs always marshal
	}
	return &jobSpec{label: label, shape: shape, spec: spec, body: body}
}

// catalogSeed fixes the fleets of serve-small and serve-warm. A fleet's
// cost hangs on its seed: at 4,096 agents and radius 3, seeds that put
// the shared hub channel where meetings come late record 1.5k meetings
// by slot 2,048, others 8k, and the sparse scan's time moves by half with
// it; a tiny jumpstay fleet's job took 0.47 ms on one seed and 0.66 ms
// on another, and serve-small's alloc_mb_per_job spread 4.7% over ten
// seeds against 0.1% with fixed fleets. One fleet per shape cannot
// average that out, so on these two workloads the workload seed draws
// the job order and the schedule reads, and the catalog stays put.
// serve-cold, with hundreds of fresh fleets per run, derives every fleet
// from the workload seed.
const catalogSeed = 2014

// smallShape is one tiny fleet of serve-small.
type smallShape struct {
	name     string
	alg      string
	n, agent int
	k        int
	horizons [2]int
	churn    scenario.Churn
	pu       scenario.PrimaryUsers
	grid     scenario.Grid
}

// smallShapes are six tiny fleets, fewer than one worker's session pool
// holds (8), so after set-up every job reuses a pooled session. ours-static
// has static spectrum, no leavers, and horizons past 12·RendezvousBound(2)+24
// = 8,472 slots at n=12 plus its 100-slot wake spread.
var smallShapes = []smallShape{
	{name: "ours-static", alg: "ours", n: 12, agent: 8, k: 2, horizons: [2]int{8704, 9216},
		churn: scenario.Churn{WakeSpread: 100}},
	{name: "ours-churn", alg: "ours", n: 16, agent: 12, k: 4, horizons: [2]int{1024, 2048},
		churn: scenario.Churn{WakeSpread: 500, LeaveFrac: 0.25, MinLife: 256, MaxLife: 2048},
		pu:    scenario.PrimaryUsers{Count: 2, Window: 256, OnFrac: 0.5}},
	{name: "ours-grid", alg: "ours", n: 16, agent: 24, k: 3, horizons: [2]int{1024, 2048},
		churn: scenario.Churn{WakeSpread: 300},
		grid:  scenario.Grid{Side: 5, Radius: 2.5}},
	{name: "general", alg: "general", n: 12, agent: 16, k: 3, horizons: [2]int{1500, 3000},
		pu: scenario.PrimaryUsers{Count: 3, Window: 128, OnFrac: 0.5}},
	{name: "jumpstay", alg: "jumpstay", n: 14, agent: 20, k: 3, horizons: [2]int{1000, 2500},
		churn: scenario.Churn{WakeSpread: 400, LeaveFrac: 0.25, MinLife: 200, MaxLife: 2500}},
	{name: "crseq", alg: "crseq", n: 13, agent: 12, k: 2, horizons: [2]int{1200, 4000},
		pu: scenario.PrimaryUsers{Count: 2, Window: 64, OnFrac: 0.5}},
}

// smallWorkload: tiny fleets, one job worker, every other request a
// schedule read. A round serves every spec once.
func smallWorkload(seed uint64) *workload {
	w := &workload{name: "serve-small", workers: 1, setups: 9, warmPasses: 1, static: true}
	for si, sh := range smallShapes {
		fleetSeed := derive(catalogSeed, streamFleet, 100+uint64(si))
		for hi, h := range sh.horizons {
			sc := scenario.Scenario{
				Name: sh.name, N: sh.n, Agents: sh.agent, K: sh.k, Seed: fleetSeed, Horizon: h,
				Churn: sh.churn, PU: sh.pu, Grid: sh.grid,
			}
			j := newJob(fmt.Sprintf("%s/h%d", sh.name, h), sh.name,
				serve.JobSpec{Alg: sh.alg, Scenario: sc, IncludeMeetings: true})
			j.pastBound = sh.name == "ours-static"
			j.pair = sh.horizons[1-hi]
			w.specs = append(w.specs, j)
		}
	}
	order := interleave(w.specs, 1, derive(seed, streamFleet, 1000))
	w.round = func(r int) []op { return withSchedReads(seed, r, order) }
	return w
}

// warmShape is one dense or gridded fleet of serve-warm with its two
// horizons and its weight (jobs per horizon per round).
type warmShape struct {
	name     string
	agents   int
	horizons [2]int
	radius   float64 // 0: dense
	weight   int
	workers  int // EngineWorkers; 0 means one
}

// warmShapes is the serve-warm catalog. g8192 sits inside the
// 4,096–16,384 meetable-pair band where the route is calibrated by wall
// clock (radius 1.2 keeps it there for every seed); g4096 at radius 3 is
// above it, so it always takes the sparse scan. Weights keep the sparse
// fleet near half of the job time.
var warmShapes = []warmShape{
	{name: "d256", agents: 256, horizons: [2]int{4096, 8192}, weight: 3},
	{name: "d512", agents: 512, horizons: [2]int{4096, 8192}, weight: 3},
	{name: "d1024", agents: 1024, horizons: [2]int{4096, 8192}, weight: 2, workers: -1},
	{name: "g8192", agents: 8192, horizons: [2]int{2048, 4096}, radius: 1.2, weight: 2},
	{name: "g4096", agents: 4096, horizons: [2]int{2048, 2560}, radius: 3, weight: 1},
}

// warmWorkload: NETWORK-shaped fleets served warm by one job worker, so
// each shape lives in exactly one pooled session. A round serves each
// spec as many times as its shape's weight.
func warmWorkload(seed uint64) *workload {
	w := &workload{name: "serve-warm", workers: 1, setups: 2, warmPasses: 2, static: true, verifyAfter: true}
	for si, sh := range warmShapes {
		fleetSeed := derive(catalogSeed, streamFleet, uint64(si))
		for hi, h := range sh.horizons {
			sc := networkScenario(sh.agents, h, sh.horizons[1], fleetSeed)
			sc.Name = sh.name
			if sh.radius > 0 {
				sc.Grid = scenario.Grid{Side: math.Sqrt(float64(sh.agents)), Radius: sh.radius}
			}
			ew := sh.workers
			if ew < 0 {
				ew = runtime.GOMAXPROCS(0)
			}
			j := newJob(fmt.Sprintf("%s/h%d", sh.name, h), sh.name,
				serve.JobSpec{Alg: "ours", Scenario: sc, EngineWorkers: ew})
			j.pair = sh.horizons[1-hi]
			w.specs = append(w.specs, j)
		}
	}
	var order []*jobSpec
	for si, sh := range warmShapes {
		order = append(order, interleave(w.specs[2*si:2*si+2], sh.weight, 0)...)
	}
	order = interleave(order, 1, derive(seed, streamFleet, 1000))
	w.round = func(r int) []op { return withSchedReads(seed, r, order) }
	return w
}

// coldSizes are the serve-cold fleet sizes; every round serves one fresh
// fleet of each.
var coldSizes = []int{64, 128, 256}

// coldHorizon is serve-cold's short horizon.
const coldHorizon = 2048

// coldWorkload: every job is a fleet never served before, on nproc job
// workers, so each job pays derivation, schedule construction, engine
// build, table compiles and a first run. Its set-up is only the server
// start, about 0.5 ms, whose cost follows the host's wake-up latency over
// tenths of a second: medians of 101 starts ranged over 30% across runs,
// medians of 1,001 (about 2 s of starts and drains) over 6%.
func coldWorkload(seed uint64) *workload {
	w := &workload{name: "serve-cold", workers: runtime.GOMAXPROCS(0), setups: 1001, replayCap: 12}
	w.round = func(r int) []op {
		jobs := make([]*jobSpec, len(coldSizes))
		for i, agents := range coldSizes {
			idx := uint64(r*len(coldSizes) + i)
			sc := networkScenario(agents, coldHorizon, coldHorizon, derive(seed, streamCold, idx))
			shape := fmt.Sprintf("d%d", agents)
			sc.Name = shape
			jobs[i] = newJob(fmt.Sprintf("%s/h%d/#%d", shape, coldHorizon, idx), shape,
				serve.JobSpec{Alg: "ours", Scenario: sc, IncludeMeetings: true})
		}
		shuffle(jobs, derive(seed, streamCold, 1<<40+uint64(r)))
		return withSchedReads(seed, r, jobs)
	}
	return w
}

// interleave returns a round's job order: each spec of jobs repeated
// times, every shape's jobs alternating between its horizons, and the
// shapes merged in an order drawn from seed (0 keeps them apart).
//
// The alternation is fixed because it costs: a pooled session re-plans
// each time its fleet's horizon changes (60–100 ms at 1,024 agents), so
// a seeded order that happened to group a shape's horizons would make
// the seed, not the program, move the result.
func interleave(jobs []*jobSpec, times int, seed uint64) []*jobSpec {
	var shapes []string
	seqs := map[string][]*jobSpec{}
	for range times {
		for _, j := range jobs {
			if seqs[j.shape] == nil {
				shapes = append(shapes, j.shape)
			}
			seqs[j.shape] = append(seqs[j.shape], j)
		}
	}
	var out []*jobSpec
	for len(out) < len(jobs)*times {
		// Draw the next shape with probability proportional to the jobs
		// it has left; seed 0 drains the shapes in order.
		left := 0
		for _, sh := range shapes {
			left += len(seqs[sh])
		}
		pick := 0
		if seed != 0 {
			seed = mix64(seed)
			pick = int(seed % uint64(left))
		}
		for _, sh := range shapes {
			if pick < len(seqs[sh]) {
				out = append(out, seqs[sh][0])
				seqs[sh] = seqs[sh][1:]
				break
			}
			pick -= len(seqs[sh])
		}
	}
	return out
}

// shuffle permutes s in place from a seed (Fisher–Yates).
func shuffle[T any](s []T, seed uint64) {
	for i := len(s) - 1; i > 0; i-- {
		seed = mix64(seed)
		j := int(seed % uint64(i+1))
		s[i], s[j] = s[j], s[i]
	}
}

// withSchedReads pairs each job of round r with one schedule read.
func withSchedReads(seed uint64, r int, jobs []*jobSpec) []op {
	ops := make([]op, len(jobs))
	for i, j := range jobs {
		ops[i] = op{job: j, sched: newSchedReq(derive(seed, streamSched, uint64(r), uint64(i)), i)}
	}
	return ops
}

// schedAlgs are the deterministic builders schedule reads rotate through.
var schedAlgs = []string{"ours", "general", "jumpstay", "crseq"}

// Every schedule read asks for schedSlots hops of a K=schedK set over
// n=schedN channels; only the set and the seed are drawn, so the cost
// of a read depends on its builder alone and a window's mix of reads is
// the same whatever the seed.
const (
	schedN     = 16
	schedK     = 4
	schedSlots = 256
)

// newSchedReq draws the i-th schedule read of a round: builder i mod 4,
// a random channel set, a random seed.
func newSchedReq(h uint64, i int) schedReq {
	perm := make([]int, schedN)
	for k := range perm {
		perm[k] = k + 1
	}
	for k := schedN - 1; k > 0; k-- {
		h = mix64(h)
		j := int(h % uint64(k+1))
		perm[k], perm[j] = perm[j], perm[k]
	}
	set := append([]int(nil), perm[:schedK]...)
	sort.Ints(set)
	req := serve.ScheduleRequest{Alg: schedAlgs[i%len(schedAlgs)], N: schedN, Channels: set,
		Seed: mix64(h) >> 34, Slots: schedSlots}
	body, err := json.Marshal(req)
	if err != nil {
		panic(fmt.Sprintf("marshal schedule request: %v", err)) // plain structs always marshal
	}
	return schedReq{req: req, body: body}
}
