package main

import (
	"encoding/json"
	"testing"

	"rendezvous/internal/serve"
)

// served runs the given specs once through an in-process server and
// returns their results, failing the test on any serve error.
func served(t *testing.T, wl *workload, specs []*jobSpec) map[string]*specResult {
	t.Helper()
	h, err := startServer(wl)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if rep := h.stop(); rep.Pinned != 0 {
			t.Errorf("drain left %d pinned entries", rep.Pinned)
		}
	}()
	for _, j := range specs {
		if _, err := h.runJob(j); err != nil {
			t.Fatal(err)
		}
	}
	return h.results
}

// encode re-encodes a tampered result.
func encode(t *testing.T, r serve.JobResult) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// tampers are the corruptions every checker must catch.
var tampers = []struct {
	name string
	f    func(*serve.JobResult)
}{
	{"meeting slot off by one", func(r *serve.JobResult) { r.Meetings[len(r.Meetings)/2].Slot++ }},
	{"dropped meeting", func(r *serve.JobResult) {
		k := len(r.Meetings) / 2
		r.Meetings = append(r.Meetings[:k:k], r.Meetings[k+1:]...)
	}},
	{"dropped meeting, MetPairs lowered", func(r *serve.JobResult) {
		k := len(r.Meetings) / 2
		r.Meetings = append(r.Meetings[:k:k], r.Meetings[k+1:]...)
		r.Coverage.MetPairs--
	}},
	{"wrong channel", func(r *serve.JobResult) { r.Meetings[len(r.Meetings)/2].Channel++ }},
	{"wrong EligiblePairs", func(r *serve.JobResult) { r.Coverage.EligiblePairs++ }},
}

// checkTampered asserts that s passes checkSpec as served and fails it
// under every tamper.
func checkTampered(t *testing.T, s *specResult) {
	t.Helper()
	if err := checkSpec(s, 1); err != nil {
		t.Fatalf("%s: served result fails its check: %v", s.job.label, err)
	}
	orig, err := decodeResult(s.result)
	if err != nil {
		t.Fatal(err)
	}
	if len(orig.Meetings) < 3 {
		t.Fatalf("%s: only %d meetings to tamper with", s.job.label, len(orig.Meetings))
	}
	for _, tc := range tampers {
		r, _ := decodeResult(s.result)
		tc.f(&r)
		bad := *s
		bad.result = encode(t, r)
		if err := checkSpec(&bad, 1); err == nil {
			t.Errorf("%s: %s passes the check", s.job.label, tc.name)
		}
	}
}

// TestFullCheck covers the whole-fleet brute force of serve-small.
func TestFullCheck(t *testing.T) {
	wl := smallWorkload(1)
	results := served(t, wl, wl.specs)
	for _, j := range wl.specs {
		if err := checkSpec(results[j.label], 1); err != nil {
			t.Errorf("%s: %v", j.label, err)
		}
	}
	checkTampered(t, results["ours-churn/h2048"])
}

// TestSampledCheck covers the sampled check on serve-cold fleets, one
// of which lists a truncated meeting set.
func TestSampledCheck(t *testing.T) {
	wl := coldWorkload(1)
	var specs []*jobSpec
	for _, o := range wl.round(0) {
		specs = append(specs, o.job)
	}
	results := served(t, wl, specs)
	truncated := false
	for _, j := range specs {
		s := results[j.label]
		checkTampered(t, s)
		r, _ := decodeResult(s.result)
		truncated = truncated || r.Truncated
	}
	if !truncated {
		t.Error("no cold fleet listed a truncated meeting set")
	}
}

// TestSampledMissedPair: on a complete cold meeting list, a result that
// drops a meeting and lowers MetPairs to match passes every count check,
// so only the sampled loop over eligible pairs can catch it; with a
// sample as large as the pair set it must.
func TestSampledMissedPair(t *testing.T) {
	wl := coldWorkload(1)
	var specs []*jobSpec
	for _, o := range wl.round(0) {
		specs = append(specs, o.job)
	}
	results := served(t, wl, specs)
	checked := 0
	for _, j := range specs {
		s := results[j.label]
		r, _ := decodeResult(s.result)
		if r.Truncated || len(r.Meetings) < 3 {
			continue
		}
		f, err := deriveFleet(j.spec)
		if err != nil {
			t.Fatal(err)
		}
		all := r.Coverage.EligiblePairs
		if err := checkSampled(f, r, 1, all); err != nil {
			t.Fatalf("%s: served result fails the every-pair check: %v", j.label, err)
		}
		k := len(r.Meetings) / 2
		r.Meetings = append(r.Meetings[:k:k], r.Meetings[k+1:]...)
		r.Coverage.MetPairs--
		if err := checkSampled(f, r, 1, all); err == nil {
			t.Errorf("%s: a dropped meeting with MetPairs lowered passes the every-pair check", j.label)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no cold fleet listed a complete meeting set")
	}
}

// TestPaperBoundCheck: the static ours fleet meets the paper's bound,
// and a result that reports a missed pair does not.
func TestPaperBoundCheck(t *testing.T) {
	wl := smallWorkload(2)
	j := wl.specs[0]
	if !j.pastBound {
		t.Fatalf("first small spec %s is not the past-bound fleet", j.label)
	}
	s := served(t, wl, []*jobSpec{j})[j.label]
	f, err := deriveFleet(j.spec)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := decodeResult(s.result)
	if err := checkPaperBound(f, r); err != nil {
		t.Fatal(err)
	}
	r.Coverage.MetPairs--
	if err := checkPaperBound(f, r); err == nil {
		t.Error("a missed pair passes the paper-bound check")
	}
	r.Coverage.MetPairs++
	r.Meetings[0].TTR = 1 << 30
	if err := checkPaperBound(f, r); err == nil {
		t.Error("a TTR past the bound passes the paper-bound check")
	}
}

// TestDeterminismCheck: a repeated response with one flipped byte fails.
func TestDeterminismCheck(t *testing.T) {
	h := &harness{results: map[string]*specResult{}}
	j := smallWorkload(1).specs[1]
	body := []byte(`{"Coverage":{"Agents":3},"MetFrac":1}`)
	if err := h.record(j, "j1", body); err != nil {
		t.Fatal(err)
	}
	if err := h.record(j, "j1", body); err != nil {
		t.Fatalf("identical repeat fails: %v", err)
	}
	flipped := []byte(string(body))
	flipped[len(flipped)/2] ^= 1
	if err := h.record(j, "j1", flipped); err == nil {
		t.Error("a flipped byte passes the determinism check")
	}
}

// TestScheduleCheck: HEAD's schedule responses pass; wrong length, a
// hop outside the set, or a zero period fail.
func TestScheduleCheck(t *testing.T) {
	wl := smallWorkload(1)
	h, err := startServer(wl)
	if err != nil {
		t.Fatal(err)
	}
	defer h.stop()
	for i := range 8 {
		q := newSchedReq(uint64(i), i)
		if _, err := h.runSched(q); err != nil {
			t.Fatal(err)
		}
	}
	q := newSchedReq(9, 0)
	good := serve.ScheduleResponse{Period: 10, Slots: q.req.Slots, Hops: make([]int, q.req.Slots)}
	for i := range good.Hops {
		good.Hops[i] = q.req.Channels[i%len(q.req.Channels)]
	}
	if err := checkSchedule(q, good); err != nil {
		t.Fatal(err)
	}
	short := good
	short.Hops = good.Hops[1:]
	outside := good
	outside.Hops = append([]int(nil), good.Hops...)
	outside.Hops[3] = schedN + 1
	noPeriod := good
	noPeriod.Period = 0
	for name, r := range map[string]serve.ScheduleResponse{"short": short, "outside": outside, "no period": noPeriod} {
		if err := checkSchedule(q, r); err == nil {
			t.Errorf("%s response passes the schedule check", name)
		}
	}
}

// TestWeightedMedian pins job_p50_ms's estimator: each value sits at the
// midpoint of its share of the weight, one half is interpolated between
// the two midpoints around it, and a half at or before the first
// midpoint returns that value.
func TestWeightedMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []weighted
		want float64
	}{
		{[]weighted{{5, 1}}, 5},
		{[]weighted{{30, 1}, {10, 1}, {20, 1}}, 20},
		{[]weighted{{10, 3}, {90, 1}}, 10 + 80*(0.5-0.375)/(0.875-0.375)},
		{[]weighted{{1, 1}, {2, 8}, {100, 1}}, 2},
		{[]weighted{{10, 1}, {20, 1}}, 15},
		{nil, 0},
	} {
		if got := weightedMedian(c.xs); got != c.want {
			t.Errorf("weightedMedian(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
