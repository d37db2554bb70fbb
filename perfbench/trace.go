package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"runtime/metrics"
	"strings"
	"time"

	"ruu"
	"ruu/internal/livermore"
	"ruu/internal/sched"
	"ruu/internal/server"
	"ruu/internal/store"
)

// This file is the traced run (--trace 1). It measures three things:
//
//   - a traced window: every request carries an X-Request-ID, and the
//     server's own GET /v1/trace job spans and GET /metrics counter
//     deltas are merged with the client's request spans (sched, cache,
//     store and server metrics);
//   - an untraced window of the same length, for trace.overhead_ratio;
//   - a replay: a fixed, seed-determined set of the workload's tasks is
//     run again through the public layer functions (asm, dfa, key,
//     cache, store, sim, exec), each call wrapped in a span.
//
// No tracing is added inside the program: every span here is recorded
// by the benchmark around a call into a layer.

// span is one timed call into a layer.
type span struct {
	layer   string
	startNS int64
	endNS   int64
}

// tracer keeps the replay's spans in memory.
type tracer struct {
	epoch time.Time
	spans []span
}

// do runs f as one span of layer.
func (t *tracer) do(layer string, f func()) {
	s := span{layer: layer, startNS: time.Since(t.epoch).Nanoseconds()}
	f()
	s.endNS = time.Since(t.epoch).Nanoseconds()
	t.spans = append(t.spans, s)
}

// mean returns the mean span length of layer in ns.
func (t *tracer) mean(layer string) float64 {
	var sum int64
	n := 0
	for _, s := range t.spans {
		if s.layer == layer {
			sum += s.endNS - s.startNS
			n++
		}
	}
	return ratio(float64(sum), float64(n))
}

// jobSpan is one executed pool job from GET /v1/trace.
type jobSpan struct {
	reqID          string
	startUS, durUS int64
	waitUS         int64
}

// parseJobSpans reads the run slices of a Chrome trace-event document
// served by GET /v1/trace (queued slices are folded into their run
// slice's queue_wait_us).
func parseJobSpans(body []byte) ([]jobSpan, error) {
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Ts   int64  `json:"ts"`
			Dur  int64  `json:"dur"`
			Args struct {
				RequestID string `json:"request_id"`
				State     string `json:"state"`
				WaitUS    int64  `json:"queue_wait_us"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return nil, fmt.Errorf("parse /v1/trace: %w", err)
	}
	var spans []jobSpan
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Args.State == "" {
			spans = append(spans, jobSpan{reqID: ev.Args.RequestID, startUS: ev.Ts, durUS: ev.Dur, waitUS: ev.Args.WaitUS})
		}
	}
	return spans, nil
}

// traceRun measures the traced window, the untraced window and the
// replay, and reports the per-layer metrics.
func traceRun(s *session, seed int64, d time.Duration, tmp string) (*result, error) {
	e := s.e
	body, err := e.get("/v1/trace")
	if err != nil {
		return nil, err
	}
	before, err := parseJobSpans(body)
	if err != nil {
		return nil, err
	}
	// The server keeps its first DefaultSpanLimit job spans; stop the
	// traced window before it would run past them.
	var budget int64
	if s.w.simulates {
		budget = max(int64(server.DefaultSpanLimit-len(before)-64), 1)
	}
	c0, err := e.counters()
	if err != nil {
		return nil, err
	}
	tw := e.window(s.in, &s.next, d/2, true, budget)
	c1, err := e.counters()
	if err != nil {
		return nil, err
	}
	if body, err = e.get("/v1/trace"); err != nil {
		return nil, err
	}
	spans, err := parseJobSpans(body)
	if err != nil {
		return nil, err
	}
	uw := e.window(s.in, &s.next, d/2, false, 0)
	c2, err := e.counters()
	if err != nil {
		return nil, err
	}
	res := s.check(append(append([]record(nil), tw.recs...), uw.recs...), c0, c2, tw.exhausted || uw.exhausted)

	m := map[string]metric{}
	add := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	ops := float64(len(tw.recs))
	tracedRate := ops / tw.elapsed.Seconds()
	untracedRate := float64(len(uw.recs)) / uw.elapsed.Seconds()
	add("trace.overhead_ratio", ratio(tracedRate, untracedRate), "ratio")

	// Server counters over the traced window.
	dc := func(series string) float64 { return delta(c0, c1, series) }
	submitted := dc(`ruu_sched_jobs_total{outcome="submitted"}`)
	deduped := dc(`ruu_sched_jobs_total{outcome="deduped"}`)
	add("sched.jobs_per_op", ratio(submitted, ops), "count")
	add("sched.dedup_ratio", ratio(deduped, submitted+deduped), "ratio")
	ch, cm := dc("ruu_cache_hits_total"), dc("ruu_cache_misses_total")
	add("cache.hit_ratio", ratio(ch, ch+cm), "ratio")
	add("cache.evictions_per_op", ratio(dc("ruu_cache_evictions_total"), ops), "count")
	sh, sm := dc("ruu_store_hits_total"), dc("ruu_store_misses_total")
	add("store.hit_ratio", ratio(sh, sh+sm), "ratio")
	add("store.reads_per_op", ratio(sh+sm, ops), "count")

	// Job spans of the traced requests, and each request's self time:
	// its latency minus the part of it its job spans cover.
	byReq := map[string][][2]int64{}
	var waits, runs []float64
	var busyUS int64
	for _, sp := range spans {
		if !strings.HasPrefix(sp.reqID, "pb-") {
			continue
		}
		byReq[sp.reqID] = append(byReq[sp.reqID], [2]int64{sp.startUS - sp.waitUS, sp.startUS + sp.durUS})
		waits = append(waits, float64(sp.waitUS)/1e3)
		runs = append(runs, float64(sp.durUS)/1e3)
		busyUS += sp.durUS
	}
	qw50, _ := percentile(waits, 0.5)
	qw90, _ := percentile(waits, 0.9)
	add("sched.queue_wait_ms_p50", qw50, "ms")
	add("sched.queue_wait_ms_p90", qw90, "ms")
	add("sched.job_ms_p50", median(runs), "ms")
	workers := c1["ruu_sched_workers"]
	add("sched.busy_ratio", ratio(float64(busyUS)/1e6, workers*tw.elapsed.Seconds()), "ratio")
	var self, lat []float64
	items := 0
	for _, r := range tw.recs {
		covered := float64(unionNS(byReq[r.reqID])) * 1e3
		self = append(self, float64(r.latNS-int64(covered))/1e6)
		lat = append(lat, float64(r.latNS)/1e6)
		for _, k := range r.keys {
			if k.cfg >= 0 {
				items++
			}
		}
	}
	add("server.self_ms", median(self), "ms")

	// The replay through the public layer functions.
	rp, err := replay(s, tmp)
	if err != nil {
		return nil, err
	}
	for k, v := range rp {
		m[k] = v
	}
	// key.share_of_p50's base is the traced window's client-side median
	// latency; the numerator is one key per simulation item of a request.
	keyUS := m["key.us_per_job"].Value
	add("key.share_of_p50", ratio(keyUS*ratio(float64(items), ops), median(lat)*1e3), "ratio")

	res.Metrics = m
	logRun(s.w, seed, "traced window", tw, res)
	return res, nil
}

// replaySet picks the replayed tasks: walking the workload's sequence
// from the start, a task is taken while any sim.ns_per_cycle class it
// falls in still needs tasks. The set is a pure function of the seed.
func replaySet(s *session) []task {
	need := map[string]int{}
	for _, c := range []string{"simple", "rstu", "ruu", "ruu_spec", "ruu_le12", "ruu_ge25"} {
		need[c] = s.w.perClass
	}
	var set []task
	for i := int64(0); i < s.in.limit && i < 20000 && len(need) > 0; i++ {
		t := s.in.task(i)
		take := false
		for _, o := range t {
			for _, it := range o.items {
				for _, c := range s.in.configs[it.cfg].classes() {
					if need[c] > 0 {
						take = true
					}
				}
			}
		}
		if !take {
			continue
		}
		set = append(set, t)
		for _, o := range t {
			for _, it := range o.items {
				for _, c := range s.in.configs[it.cfg].classes() {
					if need[c]--; need[c] <= 0 {
						delete(need, c)
					}
				}
			}
		}
	}
	return set
}

// heapAllocBytes is the cumulative heap allocation of the process.
func heapAllocBytes() uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	return sample[0].Value.Uint64()
}

// simReps is how many times the replay simulates each item.
const simReps = 3

// replay runs the replay set through the layers and reports their
// per-call costs and the exact simulated counts.
func replay(s *session, tmp string) (map[string]metric, error) {
	set := replaySet(s)
	t := &tracer{epoch: time.Now()}
	capacity := s.w.cacheEntries
	if capacity <= 0 {
		capacity = ruu.DefaultCacheEntries
	}
	cache := sched.NewCache(capacity)
	var (
		cycles, instr, ops int64
		allocs             []float64
		perClass           = map[string][2]int64{} // run ns, cycles
		progs              = map[*program]bool{}
		keys               []sched.Key
		payloads           [][]byte
	)
	for _, tk := range set {
		for _, o := range tk {
			ops++
			for _, it := range o.items {
				progs[it.prog] = true
				u, err := it.prog.Unit()
				if err != nil {
					return nil, err
				}
				cfg := s.in.configs[it.cfg].config()
				var key sched.Key
				t.do("key", func() { key = ruu.ProgramKey(cfg, u, true) })
				var hit bool
				t.do("cache", func() { _, hit = cache.Get(key) })

				// The simulation runs simReps times; the fastest run is
				// its cost, and the first one's allocations.
				var (
					st    *ruu.State
					mc    *ruu.Machine
					res   ruu.Result
					runNS int64
				)
				for rep := 0; rep < simReps; rep++ {
					a0 := heapAllocBytes()
					t.do("sim.setup", func() {
						st = ruu.NewState(u)
						mc, err = ruu.NewMachine(cfg)
					})
					if err != nil {
						return nil, err
					}
					t.do("sim.run", func() { res, err = mc.Run(u.Prog, st) })
					if err != nil {
						return nil, err
					}
					if rep == 0 {
						allocs = append(allocs, float64(heapAllocBytes()-a0)/1024)
					}
					if run := t.spans[len(t.spans)-1]; rep == 0 || run.endNS-run.startNS < runNS {
						runNS = run.endNS - run.startNS
					}
				}
				for _, c := range s.in.configs[it.cfg].classes() {
					pc := perClass[c]
					perClass[c] = [2]int64{pc[0] + runNS, pc[1] + res.Stats.Cycles}
				}
				cycles += res.Stats.Cycles
				instr += res.Stats.Instructions

				var verr error
				t.do("exec", func() { verr = verifyState(u, st, res.Stats.Instructions) })
				if verr != nil {
					return nil, fmt.Errorf("replay %s: %w", it.id(), verr)
				}
				if !hit {
					cache.Put(key, res.Stats.Cycles)
				}
				keys = append(keys, key)
				payloads = append(payloads, mustJSON(res.Stats))
			}
		}
	}
	// asm and dfa are measured once per distinct program of the set.
	for p := range progs {
		src := p.src
		if p.kernel != "" {
			src = livermore.ByName(p.kernel).Source
		}
		var err error
		t.do("asm", func() { _, err = ruu.Assemble(src) })
		if err != nil {
			return nil, err
		}
		u, _ := p.Unit()
		t.do("dfa", func() { _, err = analyzeProgram(u) })
		if err != nil {
			return nil, err
		}
	}
	openMS, err := replayStore(s, t, keys, payloads, filepath.Join(tmp, "replay-store"))
	if err != nil {
		return nil, err
	}

	m := map[string]metric{}
	add := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	for _, c := range []string{"simple", "rstu", "ruu", "ruu_spec", "ruu_le12", "ruu_ge25"} {
		pc := perClass[c]
		add("sim.ns_per_cycle."+c, ratio(float64(pc[0]), float64(pc[1])), "ns")
	}
	setupNS := t.mean("sim.setup")
	add("sim.setup_us_per_run", setupNS/1e3, "us")
	add("sim.alloc_kb_per_run", median(allocs), "KB")
	add("sim.cycles_per_op", ratio(float64(cycles), float64(ops)), "count")
	add("sim.instr_per_op", ratio(float64(instr), float64(ops)), "count")
	keyNS := t.mean("key")
	add("key.us_per_job", keyNS/1e3, "us")
	cacheNS := t.mean("cache")
	add("cache.get_us", cacheNS/1e3, "us")
	storeNS := t.mean("store")
	add("store.get_us", storeNS/1e3, "us")
	add("store.open_ms", openMS, "ms")
	asmNS := t.mean("asm")
	add("asm.us_per_program", asmNS/1e3, "us")
	dfaNS := t.mean("dfa")
	add("dfa.ms_per_program", dfaNS/1e6, "ms")
	execNS := t.mean("exec")
	add("exec.verify_ms_per_job", execNS/1e6, "ms")
	return m, nil
}

// verifyState is the verify step of a simulation job: the functional
// reference run and the comparison of its final state with st.
func verifyState(u *ruu.Unit, st *ruu.State, instructions int64) error {
	ref, rr, err := ruu.Reference(u)
	switch {
	case err != nil:
		return err
	case rr.Executed != instructions:
		return fmt.Errorf("instruction count %d != reference %d", instructions, rr.Executed)
	case !st.EqualRegs(ref):
		return fmt.Errorf("registers differ from reference")
	case st.Mem.FirstDiff(ref.Mem) >= 0:
		return fmt.Errorf("memory differs from reference")
	}
	return nil
}

// replayStore times store reads of the replayed keys. On restart-warm
// it reads the server's own store (every key is resident) and reports
// the median store.Open of the setups; elsewhere it builds a temporary
// store holding the replay's results, untimed, then times its Open and
// reads.
func replayStore(s *session, t *tracer, keys []sched.Key, payloads [][]byte, dir string) (float64, error) {
	if s.e.store != nil {
		for _, k := range keys {
			t.do("store", func() { s.e.store.Get(k) })
		}
		return median(s.openMS), nil
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return 0, err
	}
	for i, k := range keys {
		st.Put(k, payloads[i])
	}
	if err := st.Close(); err != nil {
		return 0, err
	}
	o0 := time.Now()
	if st, err = store.Open(dir, store.Options{}); err != nil {
		return 0, err
	}
	openMS := float64(time.Since(o0).Nanoseconds()) / 1e6
	for _, k := range keys {
		t.do("store", func() { st.Get(k) })
	}
	return openMS, st.Close()
}
