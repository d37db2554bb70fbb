package ruu

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"ruu/internal/asm"
	"ruu/internal/livermore"
)

// Golden property of the service layer: the parallel Runner's output is
// byte-identical to the serial harness's — same rows, same floats, same
// error text. The tests render results with %#v so any drift (ordering,
// aggregation, wrapping) shows up as a byte difference.

// sweepTestSizes is a small subset of the paper's sweep, kept short so
// the golden comparison (which runs everything twice) stays cheap.
var sweepTestSizes = []int{3, 6, 10}

func parallelRunner(t *testing.T) *Runner {
	t.Helper()
	r := NewRunner(RunnerConfig{Workers: 4})
	t.Cleanup(r.Close)
	return r
}

func TestParallelSweepByteIdenticalToSerial(t *testing.T) {
	cfg := Config{Engine: EngineRSTU}
	serial, err := Sweep(cfg, sweepTestSizes)
	if err != nil {
		t.Fatalf("serial Sweep: %v", err)
	}
	// The uncached Runner computes no content keys, so it also checks
	// that a sweep's result never depends on the key.
	for _, rc := range []RunnerConfig{{Workers: 4}, {Workers: 4, CacheEntries: -1}} {
		r := NewRunner(rc)
		t.Cleanup(r.Close)
		par, err := r.Sweep(context.Background(), cfg, sweepTestSizes)
		if err != nil {
			t.Fatalf("parallel Sweep (CacheEntries %d): %v", rc.CacheEntries, err)
		}
		got, want := fmt.Sprintf("%#v", par), fmt.Sprintf("%#v", serial)
		if got != want {
			t.Errorf("parallel sweep (CacheEntries %d) diverges from serial:\n got %s\nwant %s", rc.CacheEntries, got, want)
		}
	}
}

func TestParallelRunKernelsByteIdenticalToSerial(t *testing.T) {
	cfg := Config{Engine: EngineRUU, Entries: 8, Bypass: BypassFull}
	serial, err := RunKernels(cfg)
	if err != nil {
		t.Fatalf("serial RunKernels: %v", err)
	}
	par, err := parallelRunner(t).RunKernels(context.Background(), cfg)
	if err != nil {
		t.Fatalf("parallel RunKernels: %v", err)
	}
	got, want := fmt.Sprintf("%#v", par), fmt.Sprintf("%#v", serial)
	if got != want {
		t.Errorf("parallel kernel runs diverge from serial:\n got %s\nwant %s", got, want)
	}
}

func TestParallelSweepErrorMatchesSerial(t *testing.T) {
	cfg := Config{Engine: "no-such-engine"}
	_, serialErr := Sweep(cfg, []int{3})
	if serialErr == nil {
		t.Fatal("serial Sweep of a bogus engine succeeded")
	}
	_, parErr := parallelRunner(t).Sweep(context.Background(), cfg, []int{3})
	if parErr == nil {
		t.Fatal("parallel Sweep of a bogus engine succeeded")
	}
	if parErr.Error() != serialErr.Error() {
		t.Errorf("parallel error %q != serial error %q", parErr, serialErr)
	}
}

func TestRunnerCacheHitOnResubmission(t *testing.T) {
	r := parallelRunner(t)
	cfg := Config{Engine: EngineRSTU, Entries: 6}
	first, err := r.RunKernels(context.Background(), cfg)
	if err != nil {
		t.Fatalf("first RunKernels: %v", err)
	}
	m := r.Pool().Metrics()
	if m.Cache.Hits != 0 {
		t.Fatalf("cold cache reported %d hits", m.Cache.Hits)
	}
	second, err := r.RunKernels(context.Background(), cfg)
	if err != nil {
		t.Fatalf("second RunKernels: %v", err)
	}
	if got, want := fmt.Sprintf("%#v", second), fmt.Sprintf("%#v", first); got != want {
		t.Errorf("cached result diverges:\n got %s\nwant %s", got, want)
	}
	m = r.Pool().Metrics()
	if m.Cache.Hits == 0 {
		t.Error("resubmission produced no cache hits")
	}
	if m.Submitted != int64(len(first)) {
		t.Errorf("Submitted = %d after a fully-cached rerun, want %d", m.Submitted, len(first))
	}
}

func TestRunnerObservedConfigRunsSerially(t *testing.T) {
	r := parallelRunner(t)
	rec := NewProbeRecorder()
	cfg := Config{Engine: EngineSimple}
	cfg.Machine.Probe = rec
	if p := r.poolFor(cfg); p != nil {
		t.Fatal("observed config was given the worker pool")
	}
	if k := kernelKey(cfg, livermore.Kernels()[0]); !k.IsZero() {
		t.Fatal("observed config produced a cacheable key")
	}
	runs, err := r.RunKernels(context.Background(), cfg)
	if err != nil {
		t.Fatalf("observed RunKernels: %v", err)
	}
	if len(runs) == 0 || len(rec.Events) == 0 {
		t.Fatalf("observed run produced %d runs, %d events", len(runs), len(rec.Events))
	}
}

func TestRunProgramVerifiedAndCached(t *testing.T) {
	u, err := Assemble(serviceTestSrc)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	r := parallelRunner(t)
	cfg := Config{Engine: EngineRUU, Entries: 12, Bypass: BypassFull}
	out, err := r.RunProgram(context.Background(), cfg, u, true)
	if err != nil {
		t.Fatalf("RunProgram: %v", err)
	}
	if !out.Verified || out.Trap != "" || out.Instructions == 0 {
		t.Fatalf("unexpected outcome: %+v", out)
	}
	// Serial path must agree byte for byte.
	serial, err := serialRunner.RunProgram(context.Background(), cfg, u, true)
	if err != nil {
		t.Fatalf("serial RunProgram: %v", err)
	}
	if fmt.Sprintf("%#v", out) != fmt.Sprintf("%#v", serial) {
		t.Errorf("parallel outcome %#v != serial %#v", out, serial)
	}
	again, err := r.RunProgram(context.Background(), cfg, u, true)
	if err != nil {
		t.Fatalf("cached RunProgram: %v", err)
	}
	if fmt.Sprintf("%#v", again) != fmt.Sprintf("%#v", out) {
		t.Errorf("cached outcome diverges: %#v != %#v", again, out)
	}
	if hits := r.Pool().Metrics().Cache.Hits; hits == 0 {
		t.Error("identical resubmission produced no cache hit")
	}
	// Unverified runs must not share the verified run's cache slot.
	unv, err := r.RunProgram(context.Background(), cfg, u, false)
	if err != nil {
		t.Fatalf("unverified RunProgram: %v", err)
	}
	if unv.Verified {
		t.Error("unverified run answered from the verified cache slot")
	}
}

func TestJobKeySeparatesConfigsProgramsAndState(t *testing.T) {
	u, err := Assemble(serviceTestSrc)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	base := Config{Engine: EngineRUU, Entries: 12}
	k0 := jobKey(base, u, NewState(u))
	if k0.IsZero() {
		t.Fatal("cacheable job hashed to NoKey")
	}
	if k := jobKey(base, u, NewState(u)); k != k0 {
		t.Error("identical inputs produced different keys")
	}
	other := base
	other.Entries = 16
	if k := jobKey(other, u, NewState(u)); k == k0 {
		t.Error("different Entries produced the same key")
	}
	mcfg := base
	mcfg.Machine.FwdLatency = 5
	if k := jobKey(mcfg, u, NewState(u)); k == k0 {
		t.Error("different machine timing produced the same key")
	}
	st := NewState(u)
	st.Mem.Poke(0, 12345)
	if k := jobKey(base, u, st); k == k0 {
		t.Error("different initial memory produced the same key")
	}
}

// goldenKeySrc is a program whose data image has non-zero .word values
// in two pages, one of them past the first page boundary.
const goldenKeySrc = `
.word a 7
.word b -3
.base 5000
.word c 0x123456789
.array pad 4 11

    lai   A7, 0
    lds   S1, =a(A7)
    lds   S2, =b(A7)
    adds  S3, S1, S2
    lds   S4, =c(A7)
    adds  S3, S3, S4
    sts   S3, =a(A7)
    halt
`

// TestProgramKeyGolden pins ProgramKey's digests, so a change in how
// memory or state is represented cannot move a content key: entries
// that older builds wrote to a store must still be found.
func TestProgramKeyGolden(t *testing.T) {
	lll1, err := livermore.ByName("LLL1").Unit()
	if err != nil {
		t.Fatal(err)
	}
	words, err := Assemble(goldenKeySrc)
	if err != nil {
		t.Fatal(err)
	}
	spec := Config{Engine: EngineRUU, Entries: 50, Bypass: BypassLimited}
	spec.Machine.Speculate = true
	cases := []struct {
		name   string
		cfg    Config
		u      *Unit
		verify bool
		want   string
	}{
		{"LLL1/ruu-12", Config{Engine: EngineRUU, Entries: 12}, lll1, true,
			"0cfc6e11a40ec2b05569c5b7b61243fc90a13d789d2a7fcbe7e67f42c9321638"},
		{"LLL1/rstu-10-2p", Config{Engine: EngineRSTU, Entries: 10, Paths: 2}, lll1, false,
			"bf32dccf27710072151d6845e9485556c720fe103dd8c423789ec42332b5d551"},
		{"LLL1/ruu-50-spec", spec, lll1, true,
			"5a75f1dd1f1eb80fd98f78aeb1b802482dc6ae9c0a8f554f343748f42144e857"},
		{"words/ruu-12", Config{Engine: EngineRUU, Entries: 12}, words, true,
			"5d3cf674a13d3ad365b635b4f185c2a787f17523f56d4b5a8f3e2e94598e5209"},
		{"words/rstu-10-2p", Config{Engine: EngineRSTU, Entries: 10, Paths: 2}, words, false,
			"07502901ee2f3d043ff8d60f567739f65509bdb1d825d67c1b8aba602eb6a0af"},
		{"words/ruu-50-spec", spec, words, true,
			"c507bdb8a015975b2105bb724a8a7ee49bfddd930e1f98600334aee30f03c3b4"},
	}
	for _, c := range cases {
		if got := fmt.Sprintf("%x", ProgramKey(c.cfg, c.u, c.verify)); got != c.want {
			t.Errorf("%s: ProgramKey = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestVerifyStateRejectsWrongFinalState feeds the verify step a final
// state that is right but for one thing, for each of the three checks,
// and pins the error text each one gives.
func TestVerifyStateRejectsWrongFinalState(t *testing.T) {
	u, err := livermore.ByName("LLL1").Unit()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := u.Reference()
	if err != nil {
		t.Fatal(err)
	}
	final := func() (*State, int64) {
		st, rr, err := Reference(u)
		if err != nil {
			t.Fatal(err)
		}
		return st, rr.Executed
	}
	st, n := final()
	if err := verifyState(ref, st, n); err != nil {
		t.Fatalf("the reference's own final state: %v", err)
	}

	want := fmt.Sprintf("verify: instruction count %d != reference %d", n+1, n)
	if err := verifyState(ref, st, n+1); err == nil || err.Error() != want {
		t.Errorf("wrong instruction count: got %v, want %q", err, want)
	}

	st, n = final()
	st.S[1]++
	want = "verify: registers differ from reference: [S1]"
	if err := verifyState(ref, st, n); err == nil || err.Error() != want {
		t.Errorf("one register changed: got %v, want %q", err, want)
	}

	st, n = final()
	const addr = 20000
	st.Mem.Poke(addr, st.Mem.Peek(addr)+1)
	want = "verify: memory differs from reference at word 20000"
	if err := verifyState(ref, st, n); err == nil || err.Error() != want {
		t.Errorf("one memory word changed: got %v, want %q", err, want)
	}
}

// TestConcurrentVerifiedRunsShareOneReference sends concurrent
// verified runs of one freshly assembled kernel unit, so the first
// computation of its reference races, and checks that every run
// verifies against one shared reference.
func TestConcurrentVerifiedRunsShareOneReference(t *testing.T) {
	u, err := Assemble(livermore.ByName("LLL1").Source)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(RunnerConfig{Workers: 4, CacheEntries: -1})
	t.Cleanup(r.Close)
	cfg := Config{Engine: EngineRUU, Entries: 12}
	const calls = 32
	outs := make([]SimOutcome, calls)
	refs := make([]*asm.Reference, calls)
	errs := make([]error, calls)
	var wg sync.WaitGroup
	for i := 0; i < calls; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if outs[i], errs[i] = r.RunProgram(context.Background(), cfg, u, true); errs[i] == nil {
				refs[i], errs[i] = u.Reference()
			}
		}()
	}
	wg.Wait()
	for i := 0; i < calls; i++ {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		if !outs[i].Verified {
			t.Errorf("call %d: outcome not verified: %+v", i, outs[i])
		}
		if refs[i] != refs[0] {
			t.Errorf("call %d: reference %p, call 0 had %p", i, refs[i], refs[0])
		}
	}
}

const serviceTestSrc = `
.equ  n 32
.array x 32
.word result 0

    lai   A7, 0
    lai   A1, 0
    lai   A0, =n
    lsi   S1, 0
loop:
    lds   S2, =x(A1)
    fadd  S1, S1, S2
    addai A0, A0, -1
    addai A1, A1, 1
    janz  loop
    sts   S1, =result(A7)
    halt
`
