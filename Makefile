# Development targets for the meccdn repository.

GO ?= go

.PHONY: all ci build test race vet bench bench-smoke mutexprofile experiments examples cover clean

all: vet test race build

# The gate a commit must pass: static checks (gofmt, and vet on both
# supported platforms, so the build-tagged mmsg files are vetted for
# Linux and for the portable fallback), a full build, the test suite
# under the race detector, the pool-ownership checker over the
# packet-buffer packages (the upstream client's exchange buffers and
# the relayed reply image included, and the C-DNS router's reply writer
# over its fuzz seeds) and over every package whose tests drive chains
# through Resolve or a simulated site, each query of which checks out a
# pooled reply buffer too, the overload contract (hits do not
# wait behind upstream exchanges; read == served + shed, exactly) at 1,
# 2 and 4 cores, the recycled-span hazard (a hedged exchange's
# straggler must not reach the query its span serves next) 20 times
# under the race detector and the allocation pins — the telemetry-on
# hit, the query parse, the router's answer, the P2 hop's budget, the
# cache's store — each at 1, 2 and 4 cores,
# bounded differential-fuzz passes
# over the LPM lookup, the cache's SIEVE eviction against a reference
# SIEVE, the cache's reply patch, the one query→reply
# function every ingress serves with, the walk that lets a reply be
# relayed undecoded, the name codec and the router's bytes-written
# reply, a serve-path benchmark smoke
# run that catches hit-path and stub-exchange regressions without
# waiting for a full bench sweep (the two benchmarks that cross the UDP
# ingress at 1, 2 and 4 cores and long enough to overrun a bounded
# queue: at 100x one width the windowed hit benchmark's i/o timeout at
# -cpu 2 went unseen for five PRs),
# a small-N X8 sweep checking the bounded-load ring still beats the
# plain ring, a small-N X9 run checking mesh peer steering still
# serves flash-crowd misses from sibling MECs, and a build and vet of
# the benchmark module, which compiles against internal/... but is a
# module of its own (its tests wait for ROADMAP item 6b), bench-smoke,
# and every example run to completion: the examples are what the root
# facade exports (TestFacadeHasUsers), so they must keep working.
ci:
	gofmt -l . | (! grep .) || (echo "gofmt needed" && exit 1)
	GOOS=linux $(GO) vet ./...
	GOOS=darwin $(GO) vet ./...
	GOOS=linux $(GO) vet -tags pooldebug ./internal/dnswire/ ./internal/dnsclient/ ./internal/dnsserver/ ./internal/cdn/ ./internal/meccdn/ ./internal/resolver/ .
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -tags pooldebug ./internal/dnswire/ ./internal/dnsclient/ ./internal/dnsserver/ ./internal/cdn/ ./internal/meccdn/ ./internal/resolver/ .
	$(GO) test -race -run 'TestHitsDoNotWaitBehindUpstream|TestShedContract' -cpu 1,2,4 ./internal/dnsserver/
	$(GO) test -race -count 20 -run 'TestHedgeStragglerCannotReachNextQuery' -cpu 1,2,4 ./internal/dnsserver/
	$(GO) test -run 'TestServeQueryAllocs|TestStoreAllocBudget' -cpu 1,2,4 ./internal/dnsserver/
	$(GO) test -run 'TestUnpackQueryNoAllocOnRepeat|TestAppendReplyIsRouterVector' -cpu 1,2,4 ./internal/dnswire/
	$(GO) test -run 'TestRouterAnswerAllocs' -cpu 1,2,4 ./internal/cdn/
	$(GO) test -run 'TestStubExchangeAllocBudget' -cpu 1,2,4 .
	$(GO) test -run xxx -fuzz FuzzLPMLookup -fuzztime 5s ./internal/lpm/
	$(GO) test -run xxx -fuzz FuzzHitPatch -fuzztime 5s ./internal/dnsserver/
	$(GO) test -run xxx -fuzz FuzzCacheEviction -fuzztime 5s ./internal/dnsserver/
	$(GO) test -run xxx -fuzz FuzzServeQuery -fuzztime 5s ./internal/dnsserver/
	$(GO) test -run xxx -fuzz FuzzResponseWalk -fuzztime 5s ./internal/dnswire/
	$(GO) test -run xxx -fuzz FuzzNameUnpack -fuzztime 5s ./internal/dnswire/
	$(GO) test -run xxx -fuzz FuzzRouterReply -fuzztime 5s ./internal/cdn/
	$(GO) test -run xxx -bench='ServeUDPHit|StubExchange' -cpu 1,2,4 -benchtime=20000x -benchmem .
	$(GO) test -run xxx -bench='RouterWithRegistry|LPMLookup|RingOwners|RoutePeerLookup' -benchtime=100x -benchmem .
	$(GO) run ./cmd/experiments -x loadbalance -ues 20000 -requests 1000
	$(GO) run ./cmd/experiments -x mesh -requests 200
	cd benchmark && $(GO) build -o /dev/null ./... && $(GO) vet ./...
	$(MAKE) bench-smoke
	$(MAKE) examples

# The repository benchmark run the way BENCHMARK.json's command runs it:
# benchmark/run.sh builds it from this checkout, then each workload runs
# for one second, untraced and traced, writing to the gitignored
# benchmark/out/. A run that fails, or a reply that fails verification,
# fails the target.
bench-smoke:
	for w in hit-plain hit-ecs route-miss zipf-mix; do \
		bash benchmark/run.sh --workload $$w --seconds 1 || exit 1; \
	done

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...
	gofmt -l . | (! grep .) || (echo "gofmt needed" && exit 1)

bench:
	$(GO) test -bench=. -benchmem ./...

# Smoke-check that the serve path takes no zone/stub/router locks:
# mutex-profile the read plane under writer churn and fail on any
# read-path frame in the profile.
mutexprofile:
	$(GO) test -run 'TestServePathMutexFree' -v ./internal/dnsserver/
	$(GO) test -run 'TestRouterServePathMutexFree' -v ./internal/cdn/

# Regenerate every table and figure from the paper.
experiments:
	$(GO) run ./cmd/experiments -all

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/arvr
	$(GO) run ./examples/handoff
	$(GO) run ./examples/multitier
	$(GO) run ./examples/splitdns
	$(GO) run ./examples/failover
	$(GO) run ./examples/mesh

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

clean:
	rm -f cover.out test_output.txt
