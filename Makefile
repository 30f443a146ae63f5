GO ?= go

.PHONY: ci build test race vet lint bench benchtest fuzz faultrace soak cachesoak obssoak chaossoak overloadsoak diffsoak cover

## ci: the full verification gate — lint, build, the test suite under the
## race detector (the parallel subproblem solver makes -race mandatory),
## the fault-injection suite re-run under -race, the serving-layer soak,
## the solution-cache soak, the observability soak, the subprocess chaos
## soak, the overload-control soak, the differential soak, the coverage
## floors, the bench/ module's vet and tests, and a fuzz smoke of the
## public API.
ci: lint build race faultrace soak cachesoak obssoak chaossoak overloadsoak diffsoak cover benchtest fuzz

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

## lint: go vet plus staticcheck when the binary is available; skipped with
## a notice otherwise (the CI image may not carry it, and lint must not be
## the reason ci cannot run from a clean checkout). Also bans fmt.Print* in
## internal/server non-test files: the serving layer reports through the obs
## registry and the tracer, never by scribbling on the process's stdout.
## And fails on dead packages: every package under internal/ needs a non-test
## importer in this module or in bench/ (a package only its own tests use is
## code nobody runs).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed; skipping (go vet still ran)"; \
	fi
	@{ $(GO) list -f '{{.ImportPath}} {{join .Imports " "}}' ./...; \
		cd bench && $(GO) list -f '{{.ImportPath}} {{join .Imports " "}}' ./...; } | \
	awk '{ for (i = 2; i <= NF; i++) used[$$i] = 1; if ($$1 ~ /^telamalloc\/internal\//) pkgs[$$1] = 1 } \
		END { for (p in pkgs) if (!(p in used)) { print "lint: " p " has no non-test importer in the module or bench/"; bad = 1 } exit bad }'
	@bad=$$(grep -n 'fmt\.Print' internal/server/*.go | grep -v '_test\.go' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint: fmt.Print* is banned in internal/server (use obs metrics/tracer):"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@bad=$$(grep -n 'time\.Sleep(' internal/client/*.go | grep -v '_test\.go' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint: bare time.Sleep is banned in internal/client (use the jittered"; \
		echo "lint: backoff helpers — fixed sleeps turn a shed fleet into a retry herd):"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@bad=$$(grep -n 'time\.Sleep(' internal/server/*.go | grep -v '_test\.go' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint: bare time.Sleep is banned in internal/server (control loops are"; \
		echo "lint: ticker-driven so tests can drive them with a manual clock):"; \
		echo "$$bad"; \
		exit 1; \
	fi
	@bad=$$(grep -n 'time\.Sleep(' internal/check/*.go | grep -v '_test\.go' || true); \
	if [ -n "$$bad" ]; then \
		echo "lint: bare time.Sleep is banned in internal/check (verification must be"; \
		echo "lint: deterministic — step budgets and start-resolved timeouts, never sleeps):"; \
		echo "$$bad"; \
		exit 1; \
	fi

## soak: the serving-layer robustness suite under the race detector —
## concurrent clients against internal/server with faults armed: exactly one
## terminal outcome per request, shedding before unbounded queue growth,
## breaker trip/probe/recovery on ErrInternal (and no trip on budget
## exhaustion), bounded drain. See DESIGN.md §9.
soak:
	$(GO) test -race -count=1 -run 'Soak|Drain|Breaker|Shed|Submit|Admit|Queue|ServeStream|Handle' ./internal/server ./cmd/telamallocd

## cachesoak: the reuse-layer acceptance soak under the race detector —
## concurrent clients replaying a fixed workload against a four-worker
## server with a small cache: every cached/deduped response must be
## byte-identical to the cold solve, and the cache/dedup counters must
## balance with the terminal-outcome ledger. See DESIGN.md §10.
cachesoak:
	$(GO) test -race -count=1 -run TestCacheSoak ./internal/server

## obssoak: the observability acceptance soak under the race detector — a
## four-worker server under mixed load with a live scraper goroutine: the
## /metrics scrape must agree exactly with the Counters ledger after drain,
## histogram counts must equal admissions, and the tracer's span open/close
## accounting must balance with zero drops. See DESIGN.md §11.
obssoak:
	$(GO) test -race -count=1 -run 'TestObsSoak|TestMetricsScrapeMatchesSnapshot|TestTraceSpanBalance' ./internal/server

## chaossoak: the crash/restart acceptance soak under the race detector — a
## real daemon subprocess killed -9 and restarted mid-flood while a client
## fleet hammers it: every request must end in exactly one of {solved,
## degraded, typed error}, and a SIGTERM drain must complete within
## -drain-timeout with slowloris, idle, and long-solving connections armed.
## A long solve is bounded by its own -req-timeout deadline, the daemon's
## only overrun mechanism. See DESIGN.md §13.
chaossoak:
	TELAMALLOC_CHAOSSOAK=1 $(GO) test -race -count=1 -run TestChaosSoak -timeout 300s ./cmd/telamallocd

## faultrace: the deterministic fault-injection harness (injected panics,
## stalls, budget starvation) under the race detector — the containment
## boundaries must hold when workers crash concurrently.
faultrace:
	$(GO) test -race -run 'Fault|Injected|Panic|Starv|Cancel' ./internal/core ./internal/faultinject ./internal/spill .

## overloadsoak: the overload-control acceptance soak under the race
## detector — a sustained mixed-class, mixed-tenant flood against a slowed
## server: exactly one terminal outcome per request, no solver steps on
## expired-in-queue jobs, interactive latency bounded and never shed by
## batch/background floods, the counter ledger balanced, and the brownout
## controller both engaging and disengaging with hysteresis. Plus the
## no-overload byte-identity check, the deadline/tenant/brownout unit
## suites, and the wire protocol's forward-compat round trips of the
## priority and tenant fields. See DESIGN.md §14.
overloadsoak:
	$(GO) test -race -count=1 -run 'TestOverloadSoak|Priority|ClassQueue|BatchFlood|RetryAfterMonotonic|Expire|Tenant|Brownout|NoOverloadByte|ForwardCompat' ./internal/server ./cmd/telamallocd ./internal/wire

## fuzz: short native-fuzzing smoke of the public entry points — no input
## may panic, nil error implies a valid packing, every error wraps exactly
## one public sentinel — plus the cache-key invariant: fingerprint-equal
## problems must accept each other's replayed solutions, and the wire
## codec must agree with encoding/json on every line: FuzzWire (requests)
## and FuzzWireResponse (reports) check that the decoder accepts exactly
## what json.Unmarshal accepts, to equal values, and that the encoder
## writes json.Marshal's bytes. FuzzSearchEquivalence checks the batched
## candidate stream (phase walk and fallback, one batch at a time) against
## its eager oracle, which hands out the whole queue in one batch:
## identical search trees.
## FuzzPropagationEquivalence checks the gated CP wake against the reference
## wake-every-pair engine: identical bounds, orders, conflicts and Stats.
## FuzzSweepEquivalence checks the six buffers.Sweep-based live-range
## algorithms against the hand-rolled walks they replaced.
## FuzzGroupEquivalence checks the binary-search phase grouping against the
## ranges × buffers scan it replaced.
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzAllocate -fuzztime=10s .
	$(GO) test -run='^$$' -fuzz=FuzzPipeline -fuzztime=10s .
	$(GO) test -run='^$$' -fuzz=FuzzFingerprint -fuzztime=10s ./internal/cache
	$(GO) test -run='^$$' -fuzz='^FuzzWire$$' -fuzztime=10s ./internal/wire
	$(GO) test -run='^$$' -fuzz='^FuzzWireResponse$$' -fuzztime=10s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzCheck -fuzztime=10s ./internal/check
	$(GO) test -run='^$$' -fuzz=FuzzSearchEquivalence -fuzztime=10s ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzPropagationEquivalence -fuzztime=10s ./internal/cp
	$(GO) test -run='^$$' -fuzz=FuzzSweepEquivalence -fuzztime=10s ./internal/buffers
	$(GO) test -run='^$$' -fuzz=FuzzAlignSlotBound -fuzztime=10s ./internal/buffers
	$(GO) test -run='^$$' -fuzz=FuzzGroupEquivalence -fuzztime=10s ./internal/phases

## diffsoak: the differential verification soak under the race detector —
## a client fleet and a bare Allocator solve the same seeded adversarial
## stream, and every served response (cold, cache-hit, deduped, or with
## the brownout controller armed but idle) must be byte-identical to the
## direct run and accepted by the independent checker; plus the oracle
## sweep: the heuristic ladder must never claim a packing on an instance
## the exact solver proves infeasible. See DESIGN.md §15.
diffsoak:
	TELAMALLOC_DIFFSOAK=1 $(GO) test -race -count=1 -run TestDiffSoak -timeout 300s ./cmd/telamallocd
	$(GO) test -race -count=1 -run 'TestDifferential|TestScorecardRegression' ./internal/check

## cover: coverage floors for the verification subsystem, the exact
## oracle it leans on, the search framework and the CP engine — the checker
## is the last line of defence, and every solve runs the framework's
## candidate stream and the engine's propagation and conflict explanations,
## so their own test coverage is gated, not merely reported.
cover:
	@$(GO) test -cover ./internal/check ./internal/ilp ./internal/telamon ./internal/cp | tee /tmp/telamalloc_cover.txt; \
	awk '{ for (i=1;i<=NF;i++) if ($$i=="coverage:") { c=$$(i+1); sub(/%/,"",c); \
		floor = ($$2 ~ /internal\/check/) ? 80 : ($$2 ~ /internal\/(telamon|cp)$$/) ? 90 : 85; \
		if (c+0 < floor) { printf "cover: %s at %s%% is below the %d%% floor\n", $$2, c, floor; bad=1 } } } \
		END { exit bad }' /tmp/telamalloc_cover.txt

bench:
	$(GO) test -bench=. -benchmem ./...

## benchtest: vet and test the bench/ module. The root `go test ./...` does
## not reach it, yet it imports internal packages, so a deleted or renamed
## identifier would otherwise surface only when the benchmark runs.
benchtest:
	cd bench && $(GO) vet ./... && $(GO) test ./...
