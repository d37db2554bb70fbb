GO ?= go

.PHONY: all build test race fuzz-smoke vet bench bench-json bench-smoke lint lint-fix-check analyze serve quickstart-http

all: build test vet lint analyze

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the whole suite under the race detector, then the three
# concurrent service packages twice more: with no lint pass over their
# locking, the race detector is what guards which fields each mutex
# protects (go vet's copylocks covers copied locks).
race:
	$(GO) test -race ./...
	$(GO) test -race -count=3 ./internal/sched ./internal/server ./internal/store

# fuzz-smoke gives each fuzz target 10 s of fuzzing: the assembler
# (FuzzAssemble), the parcel decoder (FuzzDecode), the copy-on-write
# memory image against a flat model (FuzzMemory), the store's entry
# framing (FuzzDecodeEntry), its persisted-value codec
# (FuzzDecodeCached), the HTTP request decoders with their validation
# (FuzzSimulateRequest, FuzzBatchRequest; no simulation runs), and the
# whole /v1/analyze handler (FuzzAnalyzeRequest: static analysis and
# replay). Plain `go test` runs only their committed seeds;
# a crasher found here is written under the package's testdata/fuzz and
# fails every later `go test`.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzAssemble$$' -fuzztime 10s ./internal/asm
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/isa
	$(GO) test -run '^$$' -fuzz '^FuzzMemory$$' -fuzztime 10s ./internal/memsys
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEntry$$' -fuzztime 10s ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeCached$$' -fuzztime 10s .
	$(GO) test -run '^$$' -fuzz '^FuzzSimulateRequest$$' -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzBatchRequest$$' -fuzztime 10s ./internal/server
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyzeRequest$$' -fuzztime 10s ./internal/server

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-json runs the benchmark suite via cmd/ruubench and records a
# BENCH_<stamp>.json trajectory point at the repo root, comparing
# against the newest committed point (report-only; see -compare for a
# gating diff). docs/OBSERVABILITY.md describes the schema.
bench-json:
	$(GO) run ./cmd/ruubench -benchtime $(or $(BENCHTIME),1s)

# bench-smoke is the CI variant: one iteration per benchmark, written
# to out/ (not committed), plus a schema check over the committed
# trajectory and the fresh point.
bench-smoke:
	@mkdir -p out
	$(GO) run ./cmd/ruubench -benchtime 1x -out out/BENCH_smoke.json
	$(GO) run ./cmd/ruubench -checkschema BENCH_*.json out/BENCH_smoke.json

# lint runs ruulint, the repo's own static-analysis suite
# (see docs/ANALYSIS.md). A finding is a build failure. One invocation
# produces every format off a single load and shared callgraph: the
# plain-text findings (the CI problem matcher consumes these), JSON
# lines in out/ruulint.json for tooling, a SARIF 2.1.0 log in
# out/ruulint.sarif for GitHub code scanning, and a per-pass timing
# summary on stderr. Every run loads the module afresh: its own
# packages type-check from source and the standard library comes from
# the compiler's export data in the go build cache, so a whole run
# takes about 0.45 s on a 2-vCPU host (3.5 s when the standard library
# was type-checked from source too).
lint:
	$(GO) build ./...
	@mkdir -p out
	$(GO) run ./cmd/ruulint -out out/ruulint.json -sarif out/ruulint.sarif -timings ./...

# analyze runs ruudfa, the ISA-level static analysis (see docs/DFA.md):
# value-aware program lint (abstract interpretation), the static
# memory-dependence summary, the hazard census, and the dataflow-limit
# oracle, over the built-in Livermore kernels and the standalone
# example programs. An error-severity finding is a build failure;
# advisory notes are not. The per-program results are also written as
# JSON lines to out/dfa.json and as a SARIF 2.1.0 log to out/dfa.sarif
# (the CI artifacts; the SARIF log feeds GitHub code scanning).
analyze:
	$(GO) build ./...
	@mkdir -p out
	@$(GO) run ./cmd/ruudfa -json -sarif out/dfa.sarif > out/dfa.json; st=$$?; \
	if [ $$st -ne 0 ] && [ $$st -ne 1 ] ; then exit $$st; fi; \
	$(GO) run ./cmd/ruudfa
	$(GO) run ./cmd/ruudfa examples/asm/*.s

# serve runs the ruuserve HTTP API on :8093 (see docs/SERVICE.md).
serve:
	$(GO) run ./cmd/ruuserve

# quickstart-http exercises the ruuserve HTTP API end to end: the
# client self-hosts the service on a loopback port, simulates a
# program, posts a sweep of the Livermore suite as one /v1/batch (and
# fails if any result line carries an error), checks the cache-hit
# metrics, and drains the server. CI runs this to cover the HTTP path.
quickstart-http:
	$(GO) run ./examples/quickstart/client

# lint-fix-check is the CI fail-fast gate: formatting and lint findings
# fail before the slower race/bench stages run. It is CI's only ruulint
# run, so it is `make lint` after the gofmt check, artifacts included.
lint-fix-check:
	@unformatted=$$(gofmt -l . | grep -v '^out/' || true); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@$(MAKE) --no-print-directory lint
