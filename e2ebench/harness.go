package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"syscall"
	"time"

	"rendezvous/internal/serve"
	"rendezvous/internal/simulator"
	"rendezvous/internal/tablecache"
)

// harness owns one in-process server and the client that drives it
// over one loopback keep-alive connection.
type harness struct {
	wl     *workload
	srv    *serve.Server
	hs     *http.Server
	served chan error // hs.Serve's return, once it has exited
	base   string
	client *http.Client
	cache  *tablecache.Cache
	tr     *tracer // nil outside traced rounds

	mu sync.Mutex
	// results holds, per spec label, the first result bytes seen and
	// how many jobs returned them; the determinism check compares every
	// later job against the first.
	results map[string]*specResult
	order   []string // result labels in first-seen order
	// jobsSent counts accepted job submissions, for the drain
	// accounting.
	jobsSent int
}

// specResult is what a run learned about one distinct spec.
type specResult struct {
	job    *jobSpec
	id     string
	result []byte // the Result field of the first GET, verbatim
	sum    string // its SHA-256
	jobs   int    // jobs that returned these bytes
	// verified holds the IncludeMeetings result fetched after the
	// window (verifyAfter workloads only).
	verified []byte
}

// startServer starts serve.NewServer on a loopback listener over a
// fresh table cache, so every set-up starts equally cold.
func startServer(wl *workload) (*harness, error) {
	cache := tablecache.New(tablecache.DefaultBudget)
	simulator.SetTableCache(cache)
	srv := serve.NewServer(serve.Config{Workers: wl.workers, Cache: cache})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain(0)
		return nil, fmt.Errorf("listen: %w", err)
	}
	h := &harness{
		wl:      wl,
		srv:     srv,
		hs:      &http.Server{Handler: srv.Handler()},
		served:  make(chan error, 1),
		base:    "http://" + ln.Addr().String(),
		cache:   cache,
		results: make(map[string]*specResult),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
	}
	go func() { h.served <- h.hs.Serve(ln) }()
	if _, code, err := h.do(http.MethodGet, "/v1/healthz", nil); err != nil || code != http.StatusOK {
		h.stop()
		return nil, fmt.Errorf("healthz: code %d: %v", code, err)
	}
	return h, nil
}

// stop shuts the HTTP side down, then drains the worker pool, and
// reports the drain.
func (h *harness) stop() serve.DrainReport {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = h.hs.Shutdown(ctx) // a timed-out shutdown still leaves the drain below to report
	<-h.served
	h.client.CloseIdleConnections()
	return h.srv.Drain(30 * time.Second)
}

// do sends one request and reads the whole body, so the keep-alive
// connection is reused.
func (h *harness) do(method, path string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// jobSample is one timed job.
type jobSample struct {
	label, id                    string
	latency, submit, wait, fetch time.Duration
	respBytes                    int
	traced                       bool
}

// jobEnvelope is the GET /v1/jobs/{id} body with Result kept verbatim.
type jobEnvelope struct {
	ID     string
	Status serve.JobStatus
	Error  string
	Result json.RawMessage
}

// runJob submits one job, learns its completion from the manager,
// fetches it, deletes it, and passes its result bytes through the
// determinism check. The job is timed from the start of the POST until
// the GET body has been read.
func (h *harness) runJob(j *jobSpec) (jobSample, error) {
	s, res, err := h.runJobRaw(j)
	if err != nil {
		return s, err
	}
	return s, h.record(j, s.id, res)
}

// runJobRaw is runJob without the determinism check.
func (h *harness) runJobRaw(j *jobSpec) (jobSample, []byte, error) {
	s := jobSample{label: j.label}
	root := h.tr.begin("job", -1, j.label)
	defer h.tr.end(root)

	t0 := time.Now()
	sp := h.tr.begin("serve.submit", root, j.label)
	ackBody, code, err := h.do(http.MethodPost, "/v1/jobs", j.body)
	h.tr.end(sp)
	if err != nil {
		return s, nil, fmt.Errorf("%s: submit: %w", j.label, err)
	}
	if code != http.StatusAccepted {
		return s, nil, fmt.Errorf("%s: submit: status %d (want 202, a fresh job): %s", j.label, code, ackBody)
	}
	var ack serve.SubmitResponse
	if err := json.Unmarshal(ackBody, &ack); err != nil {
		return s, nil, fmt.Errorf("%s: decode ack: %w", j.label, err)
	}
	h.mu.Lock()
	h.jobsSent++
	h.mu.Unlock()
	s.id = ack.ID
	t1 := time.Now()
	sp = h.tr.begin("serve.wait", root, j.label)
	job, ok := h.srv.Manager().Job(ack.ID)
	if !ok {
		h.tr.end(sp)
		return s, nil, fmt.Errorf("%s: job %s unknown to the manager after its ack", j.label, ack.ID)
	}
	job.Wait()
	h.tr.end(sp)
	t2 := time.Now()
	sp = h.tr.begin("serve.fetch", root, j.label)
	body, code, err := h.do(http.MethodGet, "/v1/jobs/"+ack.ID, nil)
	h.tr.end(sp)
	t3 := time.Now()
	s.latency, s.submit, s.wait, s.fetch = t3.Sub(t0), t1.Sub(t0), t2.Sub(t1), t3.Sub(t2)
	s.respBytes = len(body)
	if err != nil || code != http.StatusOK {
		return s, nil, fmt.Errorf("%s: fetch: status %d: %v", j.label, code, err)
	}
	if err := h.deleteJob(ack.ID); err != nil {
		return s, nil, fmt.Errorf("%s: %w", j.label, err)
	}
	var env jobEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return s, nil, fmt.Errorf("%s: decode job: %w", j.label, err)
	}
	if env.Status != serve.StatusDone {
		return s, nil, fmt.Errorf("%s: job %s ended %s: %s", j.label, env.ID, env.Status, env.Error)
	}
	return s, env.Result, nil
}

// deleteJob evicts a finished job, so resubmitting its spec runs it
// again instead of returning the stored job.
func (h *harness) deleteJob(id string) error {
	b, code, err := h.do(http.MethodDelete, "/v1/jobs/"+id, nil)
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("delete %s: status %d: %v %s", id, code, err, b)
	}
	return nil
}

// record is the determinism check: every job of a spec must return the
// bytes the spec's first job returned.
func (h *harness) record(j *jobSpec, id string, result []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	r := h.results[j.label]
	if r == nil {
		sum := sha256.Sum256(result)
		h.results[j.label] = &specResult{job: j, id: id, result: bytes.Clone(result),
			sum: hex.EncodeToString(sum[:]), jobs: 1}
		h.order = append(h.order, j.label)
		return nil
	}
	if !bytes.Equal(r.result, result) {
		return fmt.Errorf("%s: result bytes differ from the spec's first job (determinism)", j.label)
	}
	r.jobs++
	return nil
}

// runSched sends one schedule read and checks its response.
func (h *harness) runSched(q schedReq) (time.Duration, error) {
	sp := h.tr.begin("serve.schedule", -1, "")
	t0 := time.Now()
	body, code, err := h.do(http.MethodPost, "/v1/schedule", q.body)
	d := time.Since(t0)
	h.tr.end(sp)
	if err != nil || code != http.StatusOK {
		return d, fmt.Errorf("schedule %s: status %d: %v %s", q.body, code, err, body)
	}
	var resp serve.ScheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return d, fmt.Errorf("schedule: decode: %w", err)
	}
	return d, checkSchedule(q, resp)
}

// stats reads GET /v1/stats.
func (h *harness) stats() (serve.StatsResponse, error) {
	var st serve.StatsResponse
	b, code, err := h.do(http.MethodGet, "/v1/stats", nil)
	if err != nil || code != http.StatusOK {
		return st, fmt.Errorf("stats: status %d: %v", code, err)
	}
	return st, json.Unmarshal(b, &st)
}

// warmUp serves every spec of the catalog wl.warmPasses times, in
// catalog order.
func (h *harness) warmUp() error {
	for range h.wl.warmPasses {
		for _, j := range h.wl.specs {
			if _, err := h.runJob(j); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return nil
}

// windowResult is what one timed window measured.
type windowResult struct {
	// lat holds every completed job's latency in ms by spec label, and
	// sched every schedule read's in µs.
	lat   map[string][]float64
	sched []float64
	// jobs and scheds keep whole samples, traced or not, in a traced
	// run only: the end-to-end metrics need no more than the latencies,
	// and a window's worth of samples would grow the peak RSS they
	// report.
	jobs      []jobSample
	scheds    []schedSample
	completed int
	attempted int
	failures  []string
	// marks holds a reading at the window's start and at every round
	// end, so each pair of neighbours brackets one round.
	marks []mark
}

// schedSample is one timed schedule read.
type schedSample struct {
	d      time.Duration
	traced bool
}

// mark is a reading of the process at a round boundary.
type mark struct {
	at     time.Duration // since the window started
	jobs   int64         // jobs completed so far
	cpu    time.Duration // process user+sys CPU
	allocs uint64        // cumulative heap allocation
}

// window runs the closed loop: the caller replays whole rounds until a
// round ends past the deadline, and marks every round end. With a
// tracer, odd rounds are traced and even ones not: the two halves see
// the same mix at the same time, so the difference between them is the
// tracing overhead.
func (h *harness) window(seconds float64, tr *tracer) windowResult {
	res := windowResult{lat: map[string][]float64{}}
	start := time.Now()
	length := time.Duration(seconds * float64(time.Second))
	res.marks = []mark{readMark(0, 0)}
	defer func() { h.tr = nil }()
	for r := 0; ; r++ {
		h.tr = nil
		if r%2 == 1 {
			h.tr = tr
		}
		for _, op := range h.wl.round(r) {
			res.attempted += 2
			d, err := h.runSched(op.sched)
			if err != nil {
				res.failures = append(res.failures, err.Error())
			} else {
				res.sched = append(res.sched, float64(d.Nanoseconds())/1e3)
				if tr != nil {
					res.scheds = append(res.scheds, schedSample{d, h.tr != nil})
				}
			}
			s, err := h.runJob(op.job)
			if err != nil {
				res.failures = append(res.failures, err.Error())
				continue
			}
			res.completed++
			res.lat[s.label] = append(res.lat[s.label], ms(s.latency))
			if tr != nil {
				s.traced = h.tr != nil
				res.jobs = append(res.jobs, s)
			}
		}
		now := time.Since(start)
		res.marks = append(res.marks, readMark(now, int64(res.completed)))
		if now >= length {
			return res
		}
	}
}

// readMark reads the process counters.
func readMark(at time.Duration, jobs int64) mark {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // RUSAGE_SELF with a valid pointer cannot fail
	return mark{at: at, jobs: jobs, cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), allocs: heapAllocs()}
}

// verify fetches, after the window, one IncludeMeetings result per
// distinct spec for the brute-force checks. The spec shares its fleet
// shape with the timed jobs, so it runs on the same pooled session.
func (h *harness) verify() (attempted int, failures []string) {
	h.mu.Lock()
	var todo []*specResult
	for _, j := range h.wl.specs {
		if r := h.results[j.label]; r != nil {
			todo = append(todo, r)
		}
	}
	h.mu.Unlock()
	for _, r := range todo {
		attempted++
		spec := r.job.spec
		spec.IncludeMeetings = true
		_, res, err := h.runJobRaw(newJob(r.job.label+"/meetings", r.job.shape, spec))
		if err != nil {
			failures = append(failures, err.Error())
			continue
		}
		r.verified = res
	}
	return attempted, failures
}
