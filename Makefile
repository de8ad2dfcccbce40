# Development targets for the meccdn repository.

GO ?= go

.PHONY: all ci build test race vet bench bench-smoke mutexprofile experiments examples cover clean

all: vet test race build

# The gate a commit must pass, one line per step:
#  - gofmt
#  - vet for Linux (the build-tagged recvmmsg/sendmmsg files)
#  - vet for darwin (their portable fallback)
#  - vet the pool-ownership checker's packages under -tags pooldebug
#  - build everything
#  - the test suite under the race detector, including the linked-function
#    check (every internal/ function is linked by a command, an example or
#    the benchmark; tests do not count), the setter check (every setting
#    of a config type is set by a program), and dnsd's flags: `dnsd -h`, the
#    README's flag table, and every fixed tuning value read off a daemon built
#    from deployment flags alone
#  - the pool-ownership checker over every package that checks out packet buffers
#  - the overload contract at 1, 2, 4 cores: hits never wait behind upstreams,
#    CPU-only misses (zone and router answers) never wait and are answered
#    behind a full queue, a refused joiner leaves its flight, the joiners of a
#    leader shed at the exchange get SERVFAIL; read == served + shed
#  - the recycled-span hazard (a hedge straggler reaching the next query),
#    queries joining a flight at every moment of its leader's life, the joiners
#    of a shed leader, and hits racing the evictions that reuse their slots,
#    20 times under -race
#  - allocation pins: the telemetry-on hit and the cache's store; the cache's
#    slab (hash collisions, large images, flights and serve-stale outliving
#    a slot's reuse) and its EDNS (OPT follows the asker, ECS source clamp)
#  - allocation pin: every kind of zone answer (answer, CNAME chain, wildcard,
#    NODATA, NXDOMAIN, referral; no OPT, OPT, ECS) allocates nothing
#  - allocation pin: a 0x20-cased question is lowered once per query
#  - allocation pin: a reply cut to 512 bytes (zone answer or cache hit, 40 and
#    200 records) costs no more than the same reply whole, and the cut allocates nothing
#  - allocation pin: a sampled query's log record
#  - allocation pins: the query parse (a repeat allocates nothing, a never-seen
#    name a share of one chunk, counted over 10 000 names), the router's reply
#    vector and the query pack
#  - allocation pin: the router's answer, table- and ring-routed, under a short
#    CDN domain and an operator's long one
#  - allocation budget: the P2 hop
#  - the acceptance step: opcode, two-OPT, EDNS version and malformed-ECS
#    refusals in front of a zone, a cache hit and a stub miss, counted on
#    the chain's Metrics
#  - fuzz: LPM lookup against its linear-scan twin
#  - fuzz: the routes-file parser against a line-by-line reading into that twin
#  - fuzz: the mesh ANNOUNCE codec round trip, both ways
#  - fuzz: the cache's reply patch
#  - fuzz: the ECS echo on arbitrary stored images
#  - fuzz: SIEVE eviction against a reference SIEVE
#  - fuzz: serveQuery, the one query-to-reply function every ingress uses (the
#    reply keeps the query's opcode and question; a class other than IN or ANY,
#    or a query with two OPT records, gets no records)
#  - fuzz: the walk that lets a reply be relayed undecoded
#  - fuzz: the name codec
#  - fuzz: the intern table never takes back a string it handed out
#  - fuzz: the router's bytes-written reply against its Message oracle
#  - fuzz: every record an accepted zone file holds packs and round-trips
#  - fuzz: the zone's bytes-written reply against its Message oracle, at every limit
#  - fuzz: the in-place cut of an oversized reply to its header, question and OPT
#    against the same cut of the decoded message, packed
#  - fuzz: the cache server's verb parser against a byte-level reference
#  - serve-path bench smoke across the UDP ingress at 1, 2, 4 cores (catches a bounded-queue timeout)
#  - router, LPM and ring bench smoke
#  - LPM build bench smoke: a cell-site table and random ones at 100k and 1M rows
#  - small-N X8: the bounded-load ring beats the plain ring
#  - small-N X9: mesh peer steering serves flash-crowd misses from siblings
#  - build and vet the benchmark module (a module of its own over internal/...)
#  - bench-smoke: every benchmark workload, untraced and traced, and the
#    routed ones again at a second seed
#  - every example runs to completion (they are what the root facade exports)
ci:
	gofmt -l . | (! grep .) || (echo "gofmt needed" && exit 1)
	GOOS=linux $(GO) vet ./...
	GOOS=darwin $(GO) vet ./...
	GOOS=linux $(GO) vet -tags pooldebug ./internal/dnswire/ ./internal/dnsclient/ ./internal/dnsserver/ ./internal/cdn/ ./internal/meccdn/ ./internal/resolver/ .
	$(GO) build ./...
	$(GO) test -race ./...
	$(GO) test -tags pooldebug ./internal/dnswire/ ./internal/dnsclient/ ./internal/dnsserver/ ./internal/cdn/ ./internal/meccdn/ ./internal/resolver/ .
	$(GO) test -race -run 'TestHitsDoNotWaitBehindUpstream|TestShedContract|TestCPUOnlyMisses|TestShedJoinerLeavesFlight|TestShedLeaderJoinersGetServfail' -cpu 1,2,4 ./internal/dnsserver/
	$(GO) test -race -count 20 -run 'TestHedgeStragglerCannotReachNextQuery|TestSingleflightLateJoiner|TestShedLeaderJoinersGetServfail|TestSlabSlotReuseRace' -cpu 1,2,4 ./internal/dnsserver/
	$(GO) test -run 'TestServeQueryAllocs|TestStoreAllocBudget|TestSlab|TestFlightAnswerOutlivesEviction|TestServeStaleOwnKeyOnly|TestCacheOPTFollowsAsker|TestECSClampedAtIngress|TestOneNameCannotTakeTheCache' -cpu 1,2,4 ./internal/dnsserver/
	$(GO) test -run 'TestZoneAnswerAllocs' -cpu 1,2,4 ./internal/dnsserver/
	$(GO) test -run 'TestMixedCaseHitAllocs|TestAcceptMatrix' -cpu 1,2,4 ./internal/dnsserver/
	$(GO) test -run TestTruncatedReplyAllocs -cpu 1,2,4 ./internal/dnsserver/
	$(GO) test -run 'TestSampledFinishAllocs' -cpu 1,2,4 ./internal/telemetry/
	$(GO) test -run 'TestUnpackQueryNoAllocOnRepeat|TestAppendReplyIsRouterVector|TestAppendPackAllocs' -cpu 1,2,4 ./internal/dnswire/
	$(GO) test -run 'TestRouterAnswerAllocs' -cpu 1,2,4 ./internal/cdn/
	$(GO) test -run 'TestStubExchangeAllocBudget' -cpu 1,2,4 .
	$(GO) test -run xxx -fuzz FuzzLPMLookup -fuzztime 5s ./internal/lpm/
	$(GO) test -run xxx -fuzz FuzzParseRoutes -fuzztime 5s ./internal/lpm/
	$(GO) test -run xxx -fuzz FuzzAnnounceRoundTrip -fuzztime 5s ./internal/mesh/
	$(GO) test -run xxx -fuzz FuzzHitPatch -fuzztime 5s ./internal/dnsserver/
	$(GO) test -run xxx -fuzz FuzzEchoECS -fuzztime 5s ./internal/dnswire/
	$(GO) test -run xxx -fuzz FuzzCacheEviction -fuzztime 5s ./internal/dnsserver/
	$(GO) test -run xxx -fuzz FuzzScopedLookup -fuzztime 5s ./internal/dnsserver/
	$(GO) test -run xxx -fuzz FuzzServeQuery -fuzztime 5s ./internal/dnsserver/
	$(GO) test -run xxx -fuzz FuzzResponseWalk -fuzztime 5s ./internal/dnswire/
	$(GO) test -run xxx -fuzz FuzzNameUnpack -fuzztime 5s ./internal/dnswire/
	$(GO) test -run xxx -fuzz FuzzNameIntern -fuzztime 5s ./internal/dnswire/
	$(GO) test -run xxx -fuzz FuzzRouterReply -fuzztime 5s ./internal/cdn/
	$(GO) test -run xxx -fuzz FuzzParseZone -fuzztime 5s ./internal/dnsserver/
	$(GO) test -run xxx -fuzz FuzzZoneReply -fuzztime 5s ./internal/dnsserver/
	$(GO) test -run xxx -fuzz FuzzTruncate -fuzztime 5s ./internal/dnswire/
	$(GO) test -run xxx -fuzz FuzzCacheServerVerbs -fuzztime 5s ./internal/cdn/
	$(GO) test -run xxx -bench='ServeUDPHit|StubExchange' -cpu 1,2,4 -benchtime=20000x -benchmem .
	$(GO) test -run xxx -bench='RouterWithRegistry|LPMLookup|RingOwners|RoutePeerLookup' -benchtime=100x -benchmem .
	$(GO) test -run xxx -bench='LPMBuild' -benchtime=3x -benchmem .
	$(GO) run ./cmd/experiments -x loadbalance -ues 20000 -requests 1000
	$(GO) run ./cmd/experiments -x mesh -requests 200
	cd benchmark && $(GO) build -o /dev/null ./... && $(GO) vet ./...
	$(MAKE) bench-smoke
	$(MAKE) examples

# The repository benchmark run the way BENCHMARK.json's command runs it:
# benchmark/run.sh builds it from this checkout, then each workload runs
# for one second, untraced and traced, writing to the gitignored
# benchmark/out/. The workloads the C-DNS routes run again at a second
# seed, which asks other subnets: a route wrong for only some of them
# fails here. A run that fails, or a reply that fails verification,
# fails the target.
bench-smoke:
	for w in hit-plain hit-ecs route-miss zipf-mix; do \
		bash benchmark/run.sh --workload $$w --seconds 1 || exit 1; \
	done
	for w in route-miss zipf-mix; do \
		bash benchmark/run.sh --workload $$w --seconds 1 --seed 2 || exit 1; \
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
