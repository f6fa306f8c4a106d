package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"

	"rendezvous/internal/scenario"
	"rendezvous/internal/schedule"
	"rendezvous/internal/serve"
	"rendezvous/internal/simulator"
)

// Result checks made apart from the engine. The fleet is derived from
// the spec through the scenario layer (the same agents and environment
// the server derives), and everything after that is a literal slot loop
// over Schedule.Channel, the agents' wake and leave slots, and
// Environment.Available: no blocks, compiled tables, pruning or routes.

// checkSchedule checks a POST /v1/schedule response: the requested
// slot count, every hop inside the requested channel set, and a
// positive period.
func checkSchedule(q schedReq, r serve.ScheduleResponse) error {
	if r.Period <= 0 {
		return fmt.Errorf("schedule %s: period %d not positive", q.body, r.Period)
	}
	if r.Slots != q.req.Slots || len(r.Hops) != r.Slots {
		return fmt.Errorf("schedule %s: %d hops, Slots=%d, want %d", q.body, len(r.Hops), r.Slots, q.req.Slots)
	}
	for t, c := range r.Hops {
		if _, ok := slices.BinarySearch(q.req.Channels, c); !ok {
			return fmt.Errorf("schedule %s: hop %d on channel %d, outside the requested set", q.body, t, c)
		}
	}
	return nil
}

// fleet is a spec's agents as the checks see them.
type fleet struct {
	agents  []simulator.Agent
	env     simulator.Environment
	sets    [][]int // each agent's hop set, ascending
	x, y    []float32
	radius2 float64 // 0: no contact geometry
	horizon int
	n       int // channel universe size
	byName  map[string]int
}

// fullCheckAgents is the largest fleet the checks brute-force whole:
// every pair over the full horizon, and every hop set enumerated slot by
// slot over one period. Larger fleets take the schedules' declared
// channel sets.
const fullCheckAgents = 32

// completeCheckAgents is the largest fleet whose complete (untruncated)
// meeting list the checks brute-force over every eligible pair, with the
// schedules' declared channel sets. A list cut at serve.MaxMeetings, or a
// larger fleet, takes the sampled check.
const completeCheckAgents = 128

// deriveFleet derives a spec's agents, environment and contact
// positions.
func deriveFleet(spec serve.JobSpec) (*fleet, error) {
	sc := spec.Scenario
	alg := spec.Alg
	if alg == "" {
		alg = "ours"
	}
	build, err := scenario.BuilderFor(alg, sc.N, sc.Seed)
	if err != nil {
		return nil, err
	}
	agents, env, err := sc.Build(build)
	if err != nil {
		return nil, err
	}
	f := &fleet{agents: agents, env: env, horizon: sc.Horizon, n: sc.N, byName: make(map[string]int, len(agents))}
	for i, a := range agents {
		f.byName[a.Name] = i
		if len(agents) <= fullCheckAgents {
			f.sets = append(f.sets, hopSet(a.Sched))
		} else {
			f.sets = append(f.sets, a.Sched.Channels())
		}
	}
	g, err := sc.ContactGraph()
	if err != nil {
		return nil, err
	}
	if g != nil {
		t := g.Topology()
		f.x, f.y, f.radius2 = t.X, t.Y, t.Radius*t.Radius
	}
	return f, nil
}

// hopSet lists the channels a schedule hops over one period.
func hopSet(s schedule.Schedule) []int {
	seen := map[int]bool{}
	for t := range s.Period() {
		seen[s.Channel(t)] = true
	}
	out := make([]int, 0, len(seen))
	for c := range seen {
		out = append(out, c)
	}
	sort.Ints(out)
	return out
}

// activeUntil is the exclusive end of agent a's activity below horizon.
func activeUntil(a simulator.Agent, horizon int) int {
	if a.Leave > 0 && a.Leave < horizon {
		return a.Leave
	}
	return horizon
}

// eligible reports whether agents i and j can meet at all: both active
// at some common slot below the horizon, a common hop channel, and (on
// a grid) within the contact radius.
func (f *fleet) eligible(i, j int) bool {
	a, b := f.agents[i], f.agents[j]
	if max(a.Wake, b.Wake) >= min(activeUntil(a, f.horizon), activeUntil(b, f.horizon)) {
		return false
	}
	if f.radius2 > 0 {
		dx := float64(f.x[i] - f.x[j])
		dy := float64(f.y[i] - f.y[j])
		if dx*dx+dy*dy > f.radius2 {
			return false
		}
	}
	for _, c := range f.sets[i] {
		if _, ok := slices.BinarySearch(f.sets[j], c); ok {
			return true
		}
	}
	return false
}

// firstMeeting scans slots from the later wake up to (excluding) limit
// for the first slot both agents are active on the same available
// channel.
func (f *fleet) firstMeeting(i, j, limit int) (simulator.Meeting, bool) {
	a, b := f.agents[i], f.agents[j]
	both := max(a.Wake, b.Wake)
	end := min(limit, activeUntil(a, f.horizon), activeUntil(b, f.horizon))
	for t := both; t < end; t++ {
		ch := a.Sched.Channel(t - a.Wake)
		if ch != b.Sched.Channel(t-b.Wake) {
			continue
		}
		if f.env != nil && !f.env.Available(ch, t) {
			continue
		}
		na, nb := a.Name, b.Name
		if na > nb {
			na, nb = nb, na
		}
		return simulator.Meeting{A: na, B: nb, Slot: t, Channel: ch, TTR: t - both}, true
	}
	return simulator.Meeting{}, false
}

// decodeResult decodes a job's Result bytes.
func decodeResult(b []byte) (serve.JobResult, error) {
	var r serve.JobResult
	if err := json.Unmarshal(b, &r); err != nil {
		return r, fmt.Errorf("decode result: %w", err)
	}
	return r, nil
}

// meetingLess is the canonical meeting order: slot, then names.
func meetingLess(a, b simulator.Meeting) int {
	if a.Slot != b.Slot {
		return a.Slot - b.Slot
	}
	if a.A != b.A {
		if a.A < b.A {
			return -1
		}
		return 1
	}
	if a.B < b.B {
		return -1
	}
	if a.B > b.B {
		return 1
	}
	return 0
}

// checkFull compares a result with the brute-force run of every pair:
// the whole meeting set and every Coverage field must match.
func checkFull(f *fleet, got serve.JobResult) error {
	var want []simulator.Meeting
	cov := scenario.Coverage{Agents: len(f.agents)}
	var sum int64
	for i := range f.agents {
		for j := i + 1; j < len(f.agents); j++ {
			if !f.eligible(i, j) {
				continue
			}
			cov.EligiblePairs++
			m, ok := f.firstMeeting(i, j, f.horizon)
			if !ok {
				continue
			}
			want = append(want, m)
			cov.MetPairs++
			sum += int64(m.TTR)
			cov.LastSlot = max(cov.LastSlot, m.Slot)
		}
	}
	if cov.MetPairs > 0 {
		cov.MeanTTR = float64(sum) / float64(cov.MetPairs)
	}
	if got.Coverage != cov {
		return fmt.Errorf("coverage %+v, brute force %+v", got.Coverage, cov)
	}
	if got.MetFrac != cov.MetFrac() {
		return fmt.Errorf("MetFrac %v, brute force %v", got.MetFrac, cov.MetFrac())
	}
	slices.SortFunc(want, meetingLess)
	if got.Truncated != (len(want) > serve.MaxMeetings) {
		return fmt.Errorf("Truncated %v with %d meetings", got.Truncated, len(want))
	}
	want = want[:min(len(want), serve.MaxMeetings)]
	if len(got.Meetings) != len(want) {
		return fmt.Errorf("%d meetings listed, brute force finds %d", len(got.Meetings), len(want))
	}
	for k := range want {
		if got.Meetings[k] != want[k] {
			return fmt.Errorf("meeting %d is %+v, brute force %+v", k, got.Meetings[k], want[k])
		}
	}
	return nil
}

// checkPaperBound is the paper's guarantee on a static-spectrum ours
// fleet whose horizon is past the bound: every eligible pair met, each
// within 12·RendezvousBound(K)+24 slots of the later wake.
func checkPaperBound(f *fleet, got serve.JobResult) error {
	c := got.Coverage
	if c.MetPairs != c.EligiblePairs {
		return fmt.Errorf("paper bound: %d of %d eligible pairs met", c.MetPairs, c.EligiblePairs)
	}
	for _, m := range got.Meetings {
		a, b := f.agents[f.byName[m.A]], f.agents[f.byName[m.B]]
		inner, err := schedule.NewGeneral(f.n, a.Sched.Channels())
		if err != nil {
			return err
		}
		bound := schedule.SymmetricBlockLen*inner.RendezvousBound(len(b.Sched.Channels())) + 2*schedule.SymmetricBlockLen
		if m.TTR > bound {
			return fmt.Errorf("paper bound: %s–%s TTR %d > %d", m.A, m.B, m.TTR, bound)
		}
	}
	return nil
}

// checkSampled checks a result too large for the full brute force:
//   - EligiblePairs equals the independent count;
//   - every listed meeting is its pair's true first meeting;
//   - every pair of a seeded sample of eligible pairs whose first
//     meeting falls before the last listed slot is listed (before the
//     horizon, when the list is complete).
func checkSampled(f *fleet, got serve.JobResult, seed uint64, samples int) error {
	c := got.Coverage
	if c.Agents != len(f.agents) {
		return fmt.Errorf("coverage lists %d agents, fleet has %d", c.Agents, len(f.agents))
	}
	var pairs [][2]int
	for i := range f.agents {
		for j := i + 1; j < len(f.agents); j++ {
			if f.eligible(i, j) {
				pairs = append(pairs, [2]int{i, j})
			}
		}
	}
	if c.EligiblePairs != len(pairs) {
		return fmt.Errorf("EligiblePairs %d, independent count %d", c.EligiblePairs, len(pairs))
	}
	if c.MetPairs > c.EligiblePairs || len(got.Meetings) > c.MetPairs {
		return fmt.Errorf("%d listed, %d met, %d eligible", len(got.Meetings), c.MetPairs, c.EligiblePairs)
	}
	if got.Truncated != (c.MetPairs > serve.MaxMeetings) || len(got.Meetings) != min(c.MetPairs, serve.MaxMeetings) {
		return fmt.Errorf("%d meetings listed (truncated %v) of %d met", len(got.Meetings), got.Truncated, c.MetPairs)
	}
	listed := make(map[[2]string]simulator.Meeting, len(got.Meetings))
	for _, m := range got.Meetings {
		i, okA := f.byName[m.A]
		j, okB := f.byName[m.B]
		if !okA || !okB || m.A >= m.B {
			return fmt.Errorf("meeting %+v names no ordered pair of the fleet", m)
		}
		i, j = min(i, j), max(i, j)
		if !f.eligible(i, j) {
			return fmt.Errorf("meeting %+v is not an eligible pair", m)
		}
		want, ok := f.firstMeeting(i, j, m.Slot+1)
		if !ok || want != m {
			return fmt.Errorf("meeting %+v, brute-force first meeting %+v (found %v)", m, want, ok)
		}
		listed[[2]string{m.A, m.B}] = m
	}
	limit := f.horizon
	if got.Truncated {
		limit = got.Meetings[len(got.Meetings)-1].Slot
	}
	// A seeded partial Fisher–Yates shuffle draws the sample without
	// replacement, so samples ≥ len(pairs) checks every pair.
	h := seed
	for k := range min(samples, len(pairs)) {
		h = mix64(h)
		s := k + int(h%uint64(len(pairs)-k))
		pairs[k], pairs[s] = pairs[s], pairs[k]
		p := pairs[k]
		want, ok := f.firstMeeting(p[0], p[1], limit)
		if !ok {
			continue
		}
		if m, in := listed[[2]string{want.A, want.B}]; !in || m != want {
			return fmt.Errorf("pair %s–%s first meets at %+v before slot %d but is not listed", want.A, want.B, want, limit)
		}
	}
	return nil
}
