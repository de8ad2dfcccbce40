# Development targets for the meccdn repository.

GO ?= go

.PHONY: all ci build test race vet bench bench-json mutexprofile experiments examples cover clean

all: vet test race build

# The gate a commit must pass: static checks (on both supported
# platforms, so the build-tagged mmsg files are vetted for Linux and
# for the portable fallback), a full build, the test suite under the
# race detector, the pool-ownership checker over the packet-buffer
# packages (the upstream client's exchange buffers included), bounded
# differential-fuzz passes over the LPM lookup and over the cache's
# reply patch, a serve-path benchmark smoke run that catches hit-path
# and stub-exchange regressions without waiting for a full bench sweep,
# a small-N X8 sweep checking the bounded-load ring still beats the
# plain ring, and a small-N X9 run checking mesh peer steering still
# serves flash-crowd misses from sibling MECs.
ci:
	GOOS=linux $(GO) vet ./...
	GOOS=darwin $(GO) vet ./...
	GOOS=linux $(GO) vet -tags pooldebug ./internal/dnswire/ ./internal/dnsclient/ ./internal/dnsserver/
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -tags pooldebug ./internal/dnswire/ ./internal/dnsclient/ ./internal/dnsserver/
	$(GO) test -run xxx -fuzz FuzzLPMLookup -fuzztime 5s ./internal/lpm/
	$(GO) test -run xxx -fuzz FuzzHitPatch -fuzztime 5s ./internal/dnsserver/
	$(GO) test -run xxx -bench='ServeUDPHit|ServeUDPBatch|ServeUDPParallelSockets|StubExchange|RouterWithRegistry|LPMLookup|RingOwners|RoutePeerLookup' -benchtime=100x -benchmem .
	$(GO) run ./cmd/experiments -x loadbalance -ues 20000 -requests 1000
	$(GO) run ./cmd/experiments -x mesh -requests 200

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

# Archive the serve-path benchmarks as JSON: name, ns/op, allocs/op,
# averaged over -count=5 runs, into BENCH_pr$(PR).json — `make
# bench-json PR=13`; without PR the output is the git-ignored
# BENCH_prlocal.json, so no earlier archive is overwritten. The set:
# the mesh peer lookup (one atomic snapshot load, 0 alloc/op), the
# hash-ring lookup pair (plain vs bounded-load OwnersAppend), the
# lock-free read-plane pair (snapshot vs RWMutex zone lookup and stub
# match, at -cpu 1 and 4 to expose reader-side cache-line contention)
# and the LPM, hit-path, batching, multi-socket, stub-exchange (the
# P2 miss path over a loopback upstream) and routing numbers.
PR ?= local
bench-json:
	( $(GO) test -run xxx -bench='ServeUDPHit|ServeUDPBatch|DNSMessageCache$$|ServeUDPParallelSockets|StubExchange|RouterWithRegistry|RouterPolicyAvailability|LPMLookup|RingOwners|RoutePeerLookup' -benchmem -count=5 . ; \
	  $(GO) test -run xxx -bench='ZoneLookupParallel|StubMatchParallel' -benchmem -count=5 -cpu 1,4 ./internal/dnsserver/ ) \
		| $(GO) run ./cmd/benchjson > BENCH_pr$(PR).json
	cat BENCH_pr$(PR).json

# Smoke-check that the serve path takes no zone/stub/ACL/router locks:
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
	rm -f cover.out test_output.txt bench_output.txt
