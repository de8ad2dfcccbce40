# Development targets for the meccdn repository.

GO ?= go

.PHONY: all ci build test race vet bench mutexprofile experiments examples cover clean

all: vet test race build

# The gate a commit must pass: static checks (gofmt, and vet on both
# supported platforms, so the build-tagged mmsg files are vetted for
# Linux and for the portable fallback), a full build, the test suite
# under the race detector, the pool-ownership checker over the
# packet-buffer packages (the upstream client's exchange buffers and
# the relayed reply image included), the overload contract (hits do not
# wait behind upstream exchanges; read == served + shed, exactly) at 1,
# 2 and 4 cores, bounded differential-fuzz passes
# over the LPM lookup, the cache's reply patch, the one query→reply
# function every ingress serves with, the walk that lets a reply be
# relayed undecoded and the name codec, a serve-path benchmark smoke
# run that catches hit-path and stub-exchange regressions without
# waiting for a full bench sweep (the two benchmarks that cross the UDP
# ingress at 1, 2 and 4 cores and long enough to overrun a bounded
# queue: at 100x one width the windowed hit benchmark's i/o timeout at
# -cpu 2 went unseen for five PRs),
# a small-N X8 sweep checking the bounded-load ring still beats the
# plain ring, a small-N X9 run checking mesh peer steering still
# serves flash-crowd misses from sibling MECs, and a build and vet of
# the benchmark module, which compiles against internal/... but is a
# module of its own (its tests wait for ROADMAP item 6b).
ci:
	gofmt -l . | (! grep .) || (echo "gofmt needed" && exit 1)
	GOOS=linux $(GO) vet ./...
	GOOS=darwin $(GO) vet ./...
	GOOS=linux $(GO) vet -tags pooldebug ./internal/dnswire/ ./internal/dnsclient/ ./internal/dnsserver/
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -tags pooldebug ./internal/dnswire/ ./internal/dnsclient/ ./internal/dnsserver/
	$(GO) test -race -run 'TestHitsDoNotWaitBehindUpstream|TestShedContract' -cpu 1,2,4 ./internal/dnsserver/
	$(GO) test -run xxx -fuzz FuzzLPMLookup -fuzztime 5s ./internal/lpm/
	$(GO) test -run xxx -fuzz FuzzHitPatch -fuzztime 5s ./internal/dnsserver/
	$(GO) test -run xxx -fuzz FuzzServeQuery -fuzztime 5s ./internal/dnsserver/
	$(GO) test -run xxx -fuzz FuzzResponseWalk -fuzztime 5s ./internal/dnswire/
	$(GO) test -run xxx -fuzz FuzzNameUnpack -fuzztime 5s ./internal/dnswire/
	$(GO) test -run xxx -bench='ServeUDPHit|StubExchange' -cpu 1,2,4 -benchtime=20000x -benchmem .
	$(GO) test -run xxx -bench='RouterWithRegistry|LPMLookup|RingOwners|RoutePeerLookup' -benchtime=100x -benchmem .
	$(GO) run ./cmd/experiments -x loadbalance -ues 20000 -requests 1000
	$(GO) run ./cmd/experiments -x mesh -requests 200
	cd benchmark && $(GO) build -o /dev/null ./... && $(GO) vet ./...

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
	rm -f cover.out test_output.txt
