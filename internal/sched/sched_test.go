package sched

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ruu/internal/obs"
)

func keyOf(parts ...string) Key {
	h := NewHasher()
	for i, p := range parts {
		h.String(fmt.Sprintf("part%d", i), p)
	}
	return h.Sum()
}

func TestHasherFieldBoundaries(t *testing.T) {
	// "ab"+"c" must not alias "a"+"bc", and labels must separate too.
	if keyOf("ab", "c") == keyOf("a", "bc") {
		t.Fatal("adjacent string fields alias")
	}
	h1 := NewHasher()
	h1.String("x", "v")
	h2 := NewHasher()
	h2.String("y", "v")
	if h1.Sum() == h2.Sum() {
		t.Fatal("label is not part of the hash")
	}
	h3 := NewHasher()
	h3.Int("n", 1)
	h4 := NewHasher()
	h4.Int("n", 256)
	if h3.Sum() == h4.Sum() {
		t.Fatal("int values collide")
	}
	if (Key{}).IsZero() != true || keyOf("a").IsZero() {
		t.Fatal("IsZero misclassifies")
	}
}

func TestMapOrderedParallel(t *testing.T) {
	p := New(Config{Workers: 8, QueueDepth: 2})
	defer p.Close()
	n := 100
	out, err := Map(context.Background(), p, n, nil, func(_ context.Context, i int) (int, error) {
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*i)
		}
	}
}

func TestMapNilPoolIsSerial(t *testing.T) {
	var order []int
	out, err := Map[int](context.Background(), nil, 5, nil, func(_ context.Context, i int) (int, error) {
		order = append(order, i)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 5 || len(order) != 5 || order[0] != 0 || order[4] != 4 {
		t.Fatalf("serial map out of order: %v / %v", out, order)
	}
}

func TestMapLowestIndexError(t *testing.T) {
	p := New(Config{Workers: 4})
	defer p.Close()
	// Make higher indexes fail *faster* so the collection order, not
	// the completion order, must pick the winner.
	_, err := Map(context.Background(), p, 8, nil, func(_ context.Context, i int) (int, error) {
		if i >= 2 {
			time.Sleep(time.Duration(8-i) * time.Millisecond)
			return 0, fmt.Errorf("fail-%d", i)
		}
		time.Sleep(20 * time.Millisecond)
		return 0, fmt.Errorf("fail-%d", i)
	})
	if err == nil || err.Error() != "fail-0" {
		t.Fatalf("err = %v, want fail-0 (lowest index)", err)
	}
}

func TestPanicBecomesJobError(t *testing.T) {
	p := New(Config{Workers: 1})
	defer p.Close()
	tk, err := p.Submit(context.Background(), nil, func(context.Context) (any, error) {
		panic("simulated engine bug")
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = tk.Wait(context.Background())
	if err == nil || !strings.Contains(err.Error(), "simulated engine bug") {
		t.Fatalf("panic not converted to error: %v", err)
	}
	// The pool survives: the next job still runs.
	tk, err = p.Submit(context.Background(), nil, func(context.Context) (any, error) {
		return 42, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v, err := tk.Wait(context.Background())
	if err != nil || v.(int) != 42 {
		t.Fatalf("pool dead after panic: %v %v", v, err)
	}
	if m := p.Metrics(); m.Panics != 1 || m.Failed != 1 || m.Completed != 1 {
		t.Fatalf("metrics after panic: %+v", m)
	}
}

func TestSubmitBackpressure(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 1})
	defer p.Close()
	release := make(chan struct{})
	block := func(context.Context) (any, error) { <-release; return nil, nil }
	// Fill the worker and the queue.
	if _, err := p.Submit(context.Background(), nil, block); err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to pick up the first job so the queue slot is
	// free for the second.
	deadline := time.Now().Add(time.Second)
	for p.Metrics().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := p.Submit(context.Background(), nil, block); err != nil {
		t.Fatal(err)
	}
	// The queue is now full: a submit with a short deadline must fail
	// with the context error instead of blocking forever.
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := p.Submit(ctx, nil, block)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("full queue submit: err = %v, want deadline exceeded", err)
	}
	close(release)
}

func TestCancelledJobNeverRuns(t *testing.T) {
	p := New(Config{Workers: 1})
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Bool
	tk, err := p.Submit(ctx, nil, func(context.Context) (any, error) {
		ran.Store(true)
		return nil, nil
	})
	if err != nil {
		// Also acceptable: the cancelled context lost the submit race.
		return
	}
	_, werr := tk.Wait(context.Background())
	if !errors.Is(werr, context.Canceled) {
		t.Fatalf("cancelled job: err = %v, want context.Canceled", werr)
	}
	if ran.Load() {
		t.Fatal("cancelled job ran anyway")
	}
}

func TestCacheHitMissEviction(t *testing.T) {
	c := NewCache(2)
	k1, k2, k3 := keyOf("1"), keyOf("2"), keyOf("3")
	if _, ok := c.Get(k1); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(k1, "one")
	c.Put(k2, "two")
	if v, ok := c.Get(k1); !ok || v.(string) != "one" {
		t.Fatalf("get k1 = %v %v", v, ok)
	}
	c.Put(k3, "three") // evicts k2 (LRU; k1 was just touched)
	if _, ok := c.Get(k2); ok {
		t.Fatal("k2 survived eviction")
	}
	if _, ok := c.Get(k1); !ok {
		t.Fatal("k1 evicted out of LRU order")
	}
	s := c.Stats()
	if s.Entries != 2 || s.Evictions != 1 || s.Hits != 2 || s.Misses != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if got := s.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
	// Zero keys are never stored.
	c.Put(NoKey, "x")
	if _, ok := c.Get(NoKey); ok {
		t.Fatal("zero key cached")
	}
}

func TestPoolCacheRoundTrip(t *testing.T) {
	p := New(Config{Workers: 2, Cache: NewCache(16)})
	defer p.Close()
	var runs atomic.Int64
	k := func() Key { return keyOf("job") }
	run := func(context.Context) (any, error) {
		runs.Add(1)
		return "result", nil
	}
	tk, err := p.Submit(context.Background(), k, run)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := tk.Wait(context.Background()); err != nil || v.(string) != "result" {
		t.Fatalf("first run: %v %v", v, err)
	}
	if tk.Cached() {
		t.Fatal("first run marked cached")
	}
	tk2, err := p.Submit(context.Background(), k, run)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := tk2.Wait(context.Background()); err != nil || v.(string) != "result" {
		t.Fatalf("second run: %v %v", v, err)
	}
	if !tk2.Cached() || runs.Load() != 1 {
		t.Fatalf("cache miss on resubmission: cached=%v runs=%d", tk2.Cached(), runs.Load())
	}
	if m := p.Metrics(); m.Cache.Hits != 1 {
		t.Fatalf("metrics cache hits = %d, want 1", m.Cache.Hits)
	}
}

func TestSingleflightDedup(t *testing.T) {
	// With a cache, two concurrent same-key submissions share one
	// ticket and one run. Without one, the pool never computes the key,
	// so neither is deduplicated and both run.
	for _, tc := range []struct {
		name      string
		cache     *Cache
		wantKeys  int64 // calls of the key function
		wantRuns  int64
		wantDedup int64
	}{
		{"cache", NewCache(16), 2, 1, 1},
		{"no cache", nil, 0, 2, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := New(Config{Workers: 4, Cache: tc.cache})
			defer p.Close()
			var runs, keyCalls atomic.Int64
			release := make(chan struct{})
			// Unblock the jobs on every path, a failed check included,
			// or the deferred Close waits for them forever.
			var releaseOnce sync.Once
			unblock := func() { releaseOnce.Do(func() { close(release) }) }
			defer unblock()
			key := func() Key {
				keyCalls.Add(1)
				return keyOf("dup")
			}
			run := func(context.Context) (any, error) {
				runs.Add(1)
				<-release
				return "v", nil
			}
			t1, err := p.Submit(context.Background(), key, run)
			if err != nil {
				t.Fatal(err)
			}
			t2, err := p.Submit(context.Background(), key, run)
			if err != nil {
				t.Fatal(err)
			}
			if shared := t1 == t2; shared != (tc.wantDedup == 1) {
				t.Fatalf("tickets shared = %v, want %v", shared, tc.wantDedup == 1)
			}
			unblock()
			for _, tk := range []*Ticket{t1, t2} {
				if v, err := tk.Wait(context.Background()); err != nil || v.(string) != "v" {
					t.Fatalf("wait: %v %v", v, err)
				}
			}
			if runs.Load() != tc.wantRuns {
				t.Fatalf("job ran %d times, want %d", runs.Load(), tc.wantRuns)
			}
			if m := p.Metrics(); m.Deduped != tc.wantDedup {
				t.Fatalf("deduped = %d, want %d", m.Deduped, tc.wantDedup)
			}
			if keyCalls.Load() != tc.wantKeys {
				t.Fatalf("key computed %d times, want %d", keyCalls.Load(), tc.wantKeys)
			}
		})
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	p := New(Config{Workers: 1, Cache: NewCache(16)})
	defer p.Close()
	k := func() Key { return keyOf("flaky") }
	var runs atomic.Int64
	fail := func(context.Context) (any, error) { runs.Add(1); return nil, errors.New("boom") }
	ok := func(context.Context) (any, error) { runs.Add(1); return "fine", nil }
	tk, _ := p.Submit(context.Background(), k, fail)
	if _, err := tk.Wait(context.Background()); err == nil {
		t.Fatal("want error")
	}
	tk, _ = p.Submit(context.Background(), k, ok)
	v, err := tk.Wait(context.Background())
	if err != nil || v.(string) != "fine" {
		t.Fatalf("retry after failure: %v %v (failure was cached?)", v, err)
	}
	if runs.Load() != 2 {
		t.Fatalf("runs = %d, want 2", runs.Load())
	}
}

func TestCloseDrainsQueuedJobs(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 8})
	var done atomic.Int64
	var tickets []*Ticket
	for i := 0; i < 5; i++ {
		tk, err := p.Submit(context.Background(), nil, func(context.Context) (any, error) {
			time.Sleep(time.Millisecond)
			done.Add(1)
			return nil, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		tickets = append(tickets, tk)
	}
	p.Close()
	if done.Load() != 5 {
		t.Fatalf("Close returned with %d/5 jobs done", done.Load())
	}
	for _, tk := range tickets {
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Submit(context.Background(), nil, func(context.Context) (any, error) { return nil, nil }); err == nil {
		t.Fatal("submit after Close succeeded")
	}
	p.Close() // idempotent
}

func TestConcurrentSubmitAndClose(t *testing.T) {
	// Stress the Submit/Close race: no send on closed channel, and
	// every accepted ticket resolves.
	for round := 0; round < 20; round++ {
		p := New(Config{Workers: 2, QueueDepth: 1})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					tk, err := p.Submit(context.Background(), nil, func(context.Context) (any, error) {
						return nil, nil
					})
					if err != nil {
						return // pool closed underneath us: expected
					}
					if _, err := tk.Wait(context.Background()); err != nil {
						t.Errorf("accepted ticket failed: %v", err)
						return
					}
				}
			}()
		}
		p.Close()
		wg.Wait()
	}
}

func TestPoolMetricsSnapshot(t *testing.T) {
	p := New(Config{Workers: 3, QueueDepth: 7, Cache: NewCache(4)})
	defer p.Close()
	m := p.Metrics()
	if m.Workers != 3 || m.QueueDepth != 7 || m.Cache.Capacity != 4 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestJobSpans(t *testing.T) {
	p := New(Config{Workers: 1, QueueDepth: 4, Cache: NewCache(4)})
	defer p.Close()

	var mu sync.Mutex
	var spans []obs.Span
	p.SetOnJobSpan(func(s obs.Span) {
		mu.Lock()
		spans = append(spans, s)
		mu.Unlock()
	})

	ctx := obs.WithRequestID(context.Background(), "req-42")
	k := func() Key { return keyOf("span-job") }
	run := func(context.Context) (any, error) { return 7, nil }

	tk, err := p.Submit(obs.WithJobName(ctx, "seed 0"), k, run)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A cache hit never executes, so it must not emit a span.
	tk2, err := p.Submit(ctx, k, run)
	if err != nil {
		t.Fatal(err)
	}
	if !tk2.Cached() {
		t.Fatal("second submit should hit the cache")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1 (cache hits must not emit)", len(spans))
	}
	s := spans[0]
	if s.Name != "seed 0" || s.RequestID != "req-42" || s.Err {
		t.Errorf("span = %+v", s)
	}
	if s.EnqueueNS == 0 || s.EnqueueNS > s.StartNS || s.StartNS > s.EndNS {
		t.Errorf("span timestamps out of order: %+v", s)
	}
}

func TestMapNamedLabelsSpans(t *testing.T) {
	p := New(Config{Workers: 2, QueueDepth: 4})
	defer p.Close()

	var mu sync.Mutex
	names := map[string]bool{}
	p.SetOnJobSpan(func(s obs.Span) {
		mu.Lock()
		names[s.Name] = true
		mu.Unlock()
	})

	out, err := MapNamed(context.Background(), p, 3,
		func(i int) string { return fmt.Sprintf("cfg %d", i) },
		nil,
		func(_ context.Context, i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || out[2] != 4 {
		t.Fatalf("out = %v", out)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < 3; i++ {
		if !names[fmt.Sprintf("cfg %d", i)] {
			t.Errorf("missing span name %q in %v", fmt.Sprintf("cfg %d", i), names)
		}
	}
}
