// Package sched is the simulation-service execution layer: a
// deterministic worker pool with a bounded job queue, plus a
// content-addressed result cache (cache.go). It exists so the
// experiment harness (tables.go's sweeps) and the ruuserve HTTP API
// can fan simulations out across cores without touching the
// simulator's single-threaded-per-run contract: each job runs one
// complete, self-contained simulation, and all cross-job coordination
// lives here.
//
// Determinism is preserved by construction, not by luck:
//
//   - a job is a pure function of its inputs (the simulator seeds no
//     global state), so execution order cannot change any result;
//   - Map returns results in submission-index order and reports the
//     lowest-index error, so a parallel sweep is byte-identical to the
//     serial one;
//   - the cache key (Key) covers everything that determines a result,
//     so a hit is indistinguishable from a re-run.
//
// A content key costs a hash over the job's whole input (a program's
// memory image is 256 KiB), and only a cache uses it: for lookups and
// for deduplicating identical in-flight jobs. So Submit takes the key
// as a function and calls it only on a pool with a cache; a pool
// without one computes no key, caches nothing and deduplicates
// nothing, and every submission runs.
//
// The pool is one of the two places in the module where goroutines are
// allowed (the other is internal/server); the ruulint simdeterminism
// pass covers this package, and every goroutine/select below carries
// an individually justified //ruulint:ok <pass> marker — see
// docs/ANALYSIS.md for the policy.
package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ruu/internal/obs"
)

// Config parameterises a Pool.
type Config struct {
	// Workers is the number of worker goroutines (default
	// runtime.GOMAXPROCS(0)).
	Workers int
	// QueueDepth bounds the job queue; a full queue applies
	// backpressure to Submit (default 4x Workers).
	QueueDepth int
	// Cache, when non-nil, memoises results of keyed jobs and
	// deduplicates identical concurrent ones. When nil, Submit computes
	// no content key at all and every submission runs.
	Cache *Cache
}

// Pool is a fixed-size worker pool executing simulation jobs. Closing
// the pool drains it: queued jobs still run, and Close returns when
// the last worker exits.
type Pool struct {
	workers int
	cache   *Cache
	jobs    chan *job
	wg      sync.WaitGroup

	mu       sync.Mutex
	inflight map[Key]*Ticket // keyed jobs currently queued or running
	closed   bool
	sending  sync.WaitGroup // Submits between the closed-check and the send
	closing  sync.Once
	onSpan   func(obs.Span) // telemetry hook, called once per executed job

	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	panics    atomic.Int64
	deduped   atomic.Int64
	running   atomic.Int64
}

type job struct {
	// The queue handoff carries the submitter's ctx to the worker that
	// eventually runs the job — the one audited place a context rides a
	// struct, and only for the queue dwell time.
	ctx    context.Context
	key    Key
	run    func(ctx context.Context) (any, error)
	ticket *Ticket
	// enqueueNS is the wall-clock submission stamp, recorded only when
	// a span hook is installed (telemetry, never simulation state).
	enqueueNS int64
}

// Ticket is the future for one submitted job.
type Ticket struct {
	done   chan struct{}
	value  any
	err    error
	cached bool
}

func newTicket() *Ticket { return &Ticket{done: make(chan struct{})} }

func doneTicket(v any, err error, cached bool) *Ticket {
	t := &Ticket{done: make(chan struct{}), value: v, err: err, cached: cached}
	close(t.done)
	return t
}

// Done returns a channel closed when the job has finished.
func (t *Ticket) Done() <-chan struct{} { return t.done }

// Cached reports whether the result came from the cache (valid after
// Done).
func (t *Ticket) Cached() bool { return t.cached }

// Wait blocks until the job finishes or ctx is cancelled, returning
// the job's result. A context error abandons the ticket, not the job:
// a running job always completes (and populates the cache).
func (t *Ticket) Wait(ctx context.Context) (any, error) {
	// Waiting on "result ready or caller gave up" is inherently a
	// two-channel race; the job outcome itself is already decided and
	// does not depend on which arm wins. //ruulint:ok simdeterminism
	select {
	case <-t.done:
		return t.value, t.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (t *Ticket) finish(v any, err error) {
	t.value, t.err = v, err
	close(t.done)
}

// New returns a started Pool.
func New(cfg Config) *Pool {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 4 * cfg.Workers
	}
	p := &Pool{
		workers:  cfg.Workers,
		cache:    cfg.Cache,
		jobs:     make(chan *job, cfg.QueueDepth),
		inflight: make(map[Key]*Ticket),
	}
	p.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		// The worker goroutines are the point of the package: each runs
		// whole, self-contained simulations whose results are
		// order-independent (see the package comment). //ruulint:ok simdeterminism
		go p.worker(i)
	}
	return p
}

// SetOnJobSpan installs a telemetry hook receiving one obs.Span per
// executed job (enqueue, start, finish, with the request ID and job
// name carried by the submission context). Cache hits and deduplicated
// submissions never execute, so they emit no span. The hook runs on
// worker goroutines and must be safe for concurrent use. A nil hook
// disables span telemetry (the default); with no hook installed the
// pool takes no wall-clock readings at all.
func (p *Pool) SetOnJobSpan(fn func(obs.Span)) {
	p.mu.Lock()
	p.onSpan = fn
	p.mu.Unlock()
}

// spanHook returns the installed hook (nil when span telemetry is off).
func (p *Pool) spanHook() func(obs.Span) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.onSpan
}

// Submit enqueues a job, blocking for queue space (backpressure) until
// ctx is cancelled. key, when the pool has a cache, supplies the job's
// content address: it makes the job cacheable and deduplicates
// concurrent submissions, so a second Submit of an in-flight key
// shares the first one's ticket (whose execution context is the first
// submitter's). A nil key, or one returning NoKey, skips both.
//
// A pool with no cache never calls key, so on such a pool every
// submission runs, identical concurrent ones included.
//
// The returned ticket resolves with the job's result; a job whose
// context is cancelled before a worker picks it up resolves with the
// context's error.
func (p *Pool) Submit(ctx context.Context, key func() Key, run func(ctx context.Context) (any, error)) (*Ticket, error) {
	var k Key
	if p.cache != nil && key != nil {
		k = key()
	}
	if !k.IsZero() {
		if v, ok := p.cache.Get(k); ok {
			return doneTicket(v, nil, true), nil
		}
	}
	t := newTicket()
	if !k.IsZero() {
		p.mu.Lock()
		if prior, ok := p.inflight[k]; ok {
			p.mu.Unlock()
			p.deduped.Add(1)
			return prior, nil
		}
		p.inflight[k] = t
		p.mu.Unlock()
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		p.forget(k, t)
		return nil, fmt.Errorf("sched: pool is closed")
	}
	// Register the send under the same lock as the closed-check, so
	// Close cannot close the channel between the check and the send.
	p.sending.Add(1)
	p.mu.Unlock()
	defer p.sending.Done()
	j := &job{ctx: ctx, key: k, run: run, ticket: t}
	if p.spanHook() != nil {
		// Wall-clock submission stamp for the job's telemetry span:
		// operational queue-wait measurement only, invisible to the
		// simulation. //ruulint:ok simdeterminism
		j.enqueueNS = time.Now().UnixNano()
	}
	// Backpressure: block until the bounded queue has room or the
	// submitter gives up. Which submitter wins a slot first cannot
	// change any job's result. //ruulint:ok simdeterminism
	select {
	case p.jobs <- j:
		p.submitted.Add(1)
		return t, nil
	case <-ctx.Done():
		p.forget(k, t)
		return nil, ctx.Err()
	}
}

// forget drops an inflight registration that never enqueued.
func (p *Pool) forget(key Key, t *Ticket) {
	if key.IsZero() {
		return
	}
	p.mu.Lock()
	if p.inflight[key] == t {
		delete(p.inflight, key)
	}
	p.mu.Unlock()
}

// Close drains the pool: no new jobs are accepted, queued jobs still
// run, and Close returns when the last worker has exited. Close is
// idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	p.closing.Do(func() {
		// In-flight Submits hold queue slots as workers drain them;
		// once they land, nothing else can enter the channel.
		p.sending.Wait()
		close(p.jobs)
	})
	p.wg.Wait()
}

// worker is the dispatch loop: it is a ruulint hot root (LoopOnly), so
// the per-job dispatch path is held allocation-free — a job's own
// setup (machine construction etc.) happens inside run, which the
// pool cannot and should not see.
func (p *Pool) worker(id int) {
	defer p.wg.Done()
	for j := range p.jobs {
		p.runJob(id, j)
	}
}

// runJob executes one job with panic recovery: a crashed simulation
// becomes that job's error, not a process abort.
func (p *Pool) runJob(worker int, j *job) {
	p.running.Add(1)
	defer p.running.Add(-1)
	hook := p.spanHook()
	var startNS int64
	if hook != nil {
		// Telemetry stamp for the span's queue-wait edge; the job's
		// result is fixed by its inputs alone. //ruulint:ok simdeterminism
		startNS = time.Now().UnixNano()
	}
	var v any
	var err error
	// One closure per job, not per cycle: a job is a whole simulation
	// (millions of cycles), so this allocation is off the per-cycle
	// path the hot-root bar protects.
	func() {
		// Likewise once per job: the recover closure that turns a
		// crashed simulation into a job error. //ruulint:ok hotpathalloc
		defer func() {
			if r := recover(); r != nil {
				p.panics.Add(1)
				// The panic path runs at most once per crashed job —
				// formatting here is cold.
				err = fmt.Errorf("sched: job panicked: %v", r)
			}
		}()
		if cerr := j.ctx.Err(); cerr != nil {
			err = cerr
			return
		}
		v, err = j.run(j.ctx)
	}()
	if err != nil {
		p.failed.Add(1)
	} else {
		p.completed.Add(1)
		if !j.key.IsZero() {
			p.cache.Put(j.key, v)
		}
	}
	p.forget(j.key, j.ticket)
	if hook != nil {
		// One span per executed job (cold: a job is a whole
		// simulation); the completion stamp is telemetry like the two
		// above. The hook runs before the ticket resolves so a caller
		// that waited on every ticket observes every span.
		hook(obs.Span{
			Name:      obs.JobNameFrom(j.ctx),
			RequestID: obs.RequestIDFrom(j.ctx),
			Worker:    worker,
			EnqueueNS: j.enqueueNS,
			StartNS:   startNS,
			EndNS:     time.Now().UnixNano(), //ruulint:ok simdeterminism span telemetry, no simulation sees it
			Err:       err != nil,
		})
	}
	j.ticket.finish(v, err)
}

// Metrics is a point-in-time snapshot of the pool.
type Metrics struct {
	// Workers is the worker count; QueueDepth the queue capacity;
	// Queued the jobs currently waiting; Running the jobs currently
	// executing.
	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	Queued     int `json:"queued"`
	Running    int `json:"running"`
	// Submitted counts jobs accepted into the queue; Completed and
	// Failed the finished ones; Panics the jobs that crashed (a subset
	// of Failed); Deduped the submissions that joined an in-flight
	// ticket, which happens only on a pool with a cache.
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Panics    int64 `json:"panics"`
	Deduped   int64 `json:"deduped"`
	// Cache is the result-cache snapshot (zero when no cache).
	Cache CacheStats `json:"cache"`
}

// Metrics returns a snapshot of the pool's counters.
func (p *Pool) Metrics() Metrics {
	m := Metrics{
		Workers:    p.workers,
		QueueDepth: cap(p.jobs),
		Queued:     len(p.jobs),
		Running:    int(p.running.Load()),
		Submitted:  p.submitted.Load(),
		Completed:  p.completed.Load(),
		Failed:     p.failed.Load(),
		Panics:     p.panics.Load(),
		Deduped:    p.deduped.Load(),
	}
	if p.cache != nil {
		m.Cache = p.cache.Stats()
	}
	return m
}

// Cache returns the pool's result cache (nil when none).
func (p *Pool) Cache() *Cache { return p.cache }

// Map runs f(ctx, i) for i in [0, n) and returns the results in index
// order — the property that makes a parallel sweep byte-identical to a
// serial one. key, when non-nil, provides the content address for item
// i (NoKey for uncacheable items); like Submit, Map calls it only on a
// pool with a cache. On error, Map returns the lowest-index error,
// matching what a serial loop would have reported.
//
// With a nil pool, Map degrades to the plain serial loop (no
// goroutines at all), stopping at the first error.
func Map[T any](ctx context.Context, p *Pool, n int, key func(i int) Key, f func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return MapNamed(ctx, p, n, nil, key, f)
}

// MapNamed is Map with per-item display names: name(i), when non-nil,
// labels item i's job span (obs.WithJobName) so a traced sweep shows
// one recognisable slice per configuration instead of n anonymous
// jobs. Naming is telemetry only — results are identical to Map's.
func MapNamed[T any](ctx context.Context, p *Pool, n int, name func(i int) string, key func(i int) Key, f func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if p == nil {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			v, err := f(ctx, i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}
	tickets := make([]*Ticket, n)
	var submitErr error
	for i := 0; i < n; i++ {
		i := i
		var k func() Key
		if key != nil {
			k = func() Key { return key(i) }
		}
		ictx := ctx
		if name != nil {
			ictx = obs.WithJobName(ictx, name(i))
		}
		t, err := p.Submit(ictx, k, func(ctx context.Context) (any, error) {
			return f(ctx, i)
		})
		if err != nil {
			submitErr = err
			break
		}
		tickets[i] = t
	}
	// Collect every submitted ticket even past the first failure:
	// abandoning a running job would leave it writing into out after
	// return. Errors resolve to the lowest index, like a serial loop.
	var firstErr error
	for i, t := range tickets {
		if t == nil {
			continue
		}
		v, err := t.Wait(ctx)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if firstErr == nil {
			out[i] = v.(T)
		}
	}
	if firstErr == nil {
		firstErr = submitErr
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
