package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"time"
)

// probe is the host reference measured beside every run, outside the
// program: an ALU loop before and after the run and a memory-bound
// pointer chase after it (once the run's peak RSS has been read). A
// shift in these between two sets of runs is the host drifting, not the
// program.
type probe struct {
	ALUStartNs float64 // ns per SplitMix64 step
	ALUEndNs   float64
	MemNs      float64 // ns per dependent load over 64 MiB
}

// probeSink keeps the probe loops from being optimized away.
var probeSink uint64

// aluProbe times a dependent chain of SplitMix64 steps.
func aluProbe() float64 {
	const steps = 1 << 24
	x := uint64(1)
	t := time.Now()
	for range steps {
		x = mix64(x)
	}
	d := time.Since(t)
	probeSink += x
	return float64(d.Nanoseconds()) / steps
}

// memProbe times a pointer chase through one random cycle over 64 MiB,
// so nearly every load misses the caches.
func memProbe() float64 {
	const n = 1 << 24 // uint32 entries: 64 MiB
	const steps = 1 << 22
	next := make([]uint32, n)
	for i := range next {
		next[i] = uint32(i)
	}
	// Sattolo's algorithm: a single cycle through every entry.
	h := uint64(7)
	for i := n - 1; i > 0; i-- {
		h = mix64(h)
		j := int(h % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	p := uint32(0)
	t := time.Now()
	for range steps {
		p = next[p]
	}
	d := time.Since(t)
	probeSink += uint64(p)
	return float64(d.Nanoseconds()) / steps
}

// steadyMain runs two interleaved sets of runs of one workload, each run
// on its own seed (set A on seeds 1…runs, set B on the next runs seeds),
// and prints every end-to-end metric's median and
// quartiles over all runs and per set, the drift between the set
// medians, and the bound the spread implies: three times the widest
// quartile spread, so that the spread stays below a third of it.
func steadyMain(args []string) int {
	fs := flag.NewFlagSet("e2ebench steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "runs per set")
	seconds := fs.Int("seconds", 10, "timed window of each run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, err := newWorkload(*name, 0); err != nil || *runs < 1 || *seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench steady: need a known --workload, --runs ≥ 1 and --seconds ≥ 1:", err)
		return 2
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench steady:", err)
		return 1
	}
	type runOut struct {
		res   result
		probe probe
	}
	sets := [2][]runOut{}
	for i := range *runs {
		for k := range 2 {
			set := (i + k) % 2 // alternate which set runs first
			seed := uint64(1 + set**runs + i)
			cmd := exec.Command(exe, "--workload", *name, "--seed", fmt.Sprint(seed),
				"--seconds", fmt.Sprint(*seconds), "--trace", "0")
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "e2ebench steady: run seed %d: %v\n", seed, err)
				return 1
			}
			res, err := lastResult(stdout.Bytes())
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2ebench steady: run seed %d: %v\n", seed, err)
				return 1
			}
			var rec record
			b, err := os.ReadFile(filepath.Join(outDir, fmt.Sprintf("run-%s-s%d-t0.json", *name, seed)))
			if err == nil {
				err = json.Unmarshal(b, &rec)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "e2ebench steady: record of seed %d: %v\n", seed, err)
				return 1
			}
			sets[set] = append(sets[set], runOut{res, rec.Probe})
			fmt.Printf("set %c seed %d: %s\n", 'A'+set, seed, stdout.Bytes()[bytes.LastIndexByte(bytes.TrimRight(stdout.Bytes(), "\n"), '\n')+1:])
		}
	}
	var names []string
	for n := range sets[0][0].res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Printf("\n%-17s %-31s %-31s %-31s %7s %7s\n", "metric", "all runs: median [q1, q3] spread",
		"set A", "set B", "drift", "bound")
	cell := func(runs []runOut, get func(runOut) float64) (string, float64, float64) {
		var v []float64
		for _, o := range runs {
			v = append(v, get(o))
		}
		q1, m, q3 := quartiles(v)
		spread := 0.0
		if m != 0 {
			spread = (q3 - q1) / m
		}
		return fmt.Sprintf("%.4g [%.4g, %.4g] %.1f%%", m, q1, q3, 100*spread), m, spread
	}
	row := func(label string, get func(runOut) float64) {
		all, _, spread := cell(append(slices.Clone(sets[0]), sets[1]...), get)
		a, ma, sa := cell(sets[0], get)
		b, mb, sb := cell(sets[1], get)
		drift := 0.0
		if ma != 0 {
			drift = mb/ma - 1
		}
		fmt.Printf("%-17s %-31s %-31s %-31s %6.1f%% %6.1f%%\n", label, all, a, b,
			100*drift, 300*max(spread, sa, sb))
	}
	for _, n := range names {
		row(n, func(o runOut) float64 { return o.res.Metrics[n].Value })
	}
	row("failed share", func(o runOut) float64 { return float64(o.res.Failed) / float64(o.res.Attempted) })
	row("probe alu ns", func(o runOut) float64 { return (o.probe.ALUStartNs + o.probe.ALUEndNs) / 2 })
	row("probe mem ns", func(o runOut) float64 { return o.probe.MemNs })
	return 0
}

// lastResult parses the result object on a run's last output line.
func lastResult(out []byte) (result, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = slices.Clone(sc.Bytes())
		}
	}
	var r result
	if err := json.Unmarshal(last, &r); err != nil {
		return r, fmt.Errorf("parse result line %q: %w", last, err)
	}
	return r, nil
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(values, n=4) (exclusive method) and
// statistics.median compute them.
func quartiles(values []float64) (q1, med, q3 float64) {
	d := slices.Clone(values)
	slices.Sort(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	med = d[n/2]
	if n%2 == 0 {
		med = (d[n/2-1] + d[n/2]) / 2
	}
	return q(1), med, q(3)
}

// compareMain compares the hash lists of two run records: the results of
// every spec both runs served must be byte-identical. It compares two
// commits (the same seed on each) or two runs of one commit.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: e2ebench compare <run record A> <run record B>")
		return 2
	}
	var lists [2]map[string]hashEntry
	for i, p := range args {
		var rec record
		b, err := os.ReadFile(p)
		if err == nil {
			err = json.Unmarshal(b, &rec)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench compare:", err)
			return 2
		}
		lists[i] = map[string]hashEntry{}
		for _, e := range rec.Hashes {
			lists[i][e.Label] = e
		}
	}
	var labels []string
	for l := range lists[0] {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	same, differ, only := 0, 0, 0
	for _, l := range labels {
		b, ok := lists[1][l]
		switch {
		case !ok:
			only++
		case b.SHA256 == lists[0][l].SHA256 && b.JobID == lists[0][l].JobID:
			same++
		default:
			differ++
			fmt.Printf("DIFFER %s: %s %s vs %s %s\n", l, lists[0][l].JobID, lists[0][l].SHA256, b.JobID, b.SHA256)
		}
	}
	only += len(lists[1]) - same - differ
	fmt.Printf("%d specs identical, %d differ, %d served by one run only\n", same, differ, only)
	if differ > 0 {
		return 1
	}
	return 0
}
