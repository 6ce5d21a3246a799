#!/usr/bin/env bash
# Regenerates the recorded outputs at the repository root:
#   test_output.txt  — full ctest run
#   bench_output.txt — every bench binary (paper tables/figures + ablations)
# and smoke-checks the reliability tooling: the chaos suite under
# AddressSanitizer plus a 50-seed md_chaos sweep.
set -u
cd "$(dirname "$0")/.."
cmake -B build -G Ninja && cmake --build build || exit 1
ctest --test-dir build 2>&1 | tee test_output.txt

# Benchmark build leg: perfbench/ compiles the engine sources into its own
# library, so a src/ change that breaks the repo benchmark's build (say, a
# function pb_engine or pb_gen calls is gone) fails here rather than in a
# benchmark run.
cmake -S perfbench -B build-perfbench -G Ninja \
  && cmake --build build-perfbench --target pb_engine pb_gen || exit 1

# Chaos harness under ASan: the fault paths (crash teardown, reconnection
# sync, gap-stall timers) are where lifetime bugs would hide.
cmake -B build-asan -G Ninja -DMD_SANITIZE=address \
  && cmake --build build-asan --target chaos_test md_chaos || exit 1
./build-asan/tests/chaos_test || exit 1
./build-asan/tools/md_chaos --seeds 50 || exit 1

# Slow-consumer leg: an explicit stalled-subscriber fault under ASan (the
# eviction path frees a session with megabytes still parked — exactly where a
# use-after-flush would hide), then the backpressure bench as a bounds smoke
# check: it exits nonzero unless peak pending stays under the hard watermark
# and healthy subscribers lose nothing.
./build-asan/tools/md_chaos --seed 7 --events "slow:0@1500+6000" || exit 1
./build-asan/tools/md_chaos --seed 11 --events "slow:1@2000+5000" || exit 1
MD_BENCH_SLOWCONS_CLIENTS=8 MD_BENCH_SLOWCONS_MSGS=600 \
  MD_BENCH_SLOWCONS_OUT=/dev/null ./build/bench/bench_slow_consumer || exit 1

# Metrics leg: the exposition goldens and live-scrape test, plain and under
# ThreadSanitizer — the sharded counters and histograms (every IoThread
# records publish stage times into them) and the registry snapshot are the
# concurrency-bearing surfaces of src/obs.
./build/tests/obs_test || exit 1
cmake -B build-tsan -G Ninja -DMD_SANITIZE=thread \
  && cmake --build build-tsan --target obs_test core_test || exit 1
./build-tsan/tests/obs_test || exit 1

# Fan-out leg: the CoW subscriber-snapshot churn test, the Worker-batch
# hand-off tests (ordering, and the one stage record a publish carries from
# its Worker to the IoThread that writes it) and the client front-door tests
# under TSan (writers hammer Subscribe/Unsubscribe/DropClient against
# concurrent snapshot readers; outboxes cross from Worker to IoThread; the
# front door's session table is shared by IoThreads and Workers; a WAL'd
# Server's sync thread fsyncs the journal Workers append to), the
# hand-off, slow-consumer and front-door tests under ASan (sessions and
# shared wire buffers live in an outbox until its batch is written,
# including across eviction and close-after-flush), then a small
# bench_fanout sweep and a 300-client bench_c10k_real as delivery smoke
# checks — each binary counts a subscriber once its SUBACK arrives and
# exits nonzero on any lost notification.
./build-tsan/tests/core_test \
  --gtest_filter='RegistryConcurrencyTest.*:*ServerFanoutTest*:*FrontDoor*:*ServerWal*' \
  || exit 1
cmake --build build-asan --target core_test || exit 1
./build-asan/tests/core_test \
  --gtest_filter='*ServerFanoutTest*:*SlowConsumer*:*FrontDoor*' || exit 1
MD_BENCH_FANOUT_CLIENTS=64 MD_BENCH_FANOUT_TOPICS=4 MD_BENCH_FANOUT_BURSTS=10 \
  MD_BENCH_FANOUT_OUT=/dev/null MD_BENCH_MONITOR_OUT=/dev/null \
  ./build/bench/bench_fanout || exit 1
MD_BENCH_CLIENTS=300 ./build/bench/bench_c10k_real || exit 1

# Egress leg: the one send path. Every connection write — the hosts'
# frames and the client library's handshakes, frames and pongs alike — is a
# pooled, refcounted WireBuffer queued by reference (SendQueue) and written by
# the loop's flush pass with sendmsg scatter-gather. transport_test covers it
# over real sockets and inproc pipes; the same binary then runs under ASan
# (buffer lifetime: a shared buffer stays readable across close-mid-flush and
# Clear, and a drained CloseAfterFlush frees its connection) and TSan
# (cross-thread Post against the loop's flush pass). client_test runs under
# ASan too: the client's buffers come from the shared pool and can outlive a
# connection that closes mid-flush. bench_fanout above already smoke-checks
# loss-free delivery. alloc_test pins the allocation budget of the same path
# (0 heap allocations to encode a frame into a warm pooled buffer, to
# acquire and release one, and to encode a DELIVER from a message); it runs
# plain and under ASan, where the in-place framing's byte shifts inside a
# buffer's spare capacity are checked for overruns.
./build/tests/transport_test || exit 1
./build/tests/alloc_test || exit 1
cmake --build build-asan --target transport_test client_test alloc_test || exit 1
./build-asan/tests/transport_test || exit 1
./build-asan/tests/client_test || exit 1
./build-asan/tests/alloc_test || exit 1
cmake --build build-tsan --target transport_test || exit 1
./build-tsan/tests/transport_test || exit 1

# Cluster egress leg: the real-TCP cluster suite under ASan (a member's
# wire buffers live in peer/coord backlogs and in CloseAfterFlush queues
# that outlast the node's view of the client; its clients, WebSocket and
# /metrics scrapes included, go through the shared front door), then the
# same suite as a concurrency gate: two processes at a time, ten rounds,
# each cluster on ports the kernel handed out, so parallel runs can never
# share listeners.
cmake --build build-asan --target cluster_test || exit 1
./build-asan/tests/cluster_test --gtest_filter='TcpClusterTest.*' || exit 1
ctest --test-dir build -R TcpClusterTest -j2 --repeat until-fail:10 || exit 1

# Runtime-verification leg: the monitor's own suite under TSan (the sharded
# LRU tables, report buffer and one-shot injection mask are its
# concurrency-bearing surfaces; the chaos-driver-based cases run in the plain
# ctest pass above), a 20-seed monitored chaos sweep (the monitor rides every
# client stream through crashes/partitions/flaps and must stay silent), and a
# live md_server <-> md_monitor smoke: the sidecar must catch the gap it
# injects into itself, report nothing else, and see the server's own
# violation counter move for the duplicate driven through /inject.
cmake --build build-tsan --target verify_test || exit 1
./build-tsan/tests/verify_test \
  --gtest_filter='-*MonitoredChaosSeeds*:*ChaosInjection*' || exit 1
./build/tools/md_chaos --seeds 20 --monitor --quiet || exit 1
./build/tools/md_server --port 18931 --verify --verify-inject &
MD_SERVER_PID=$!
sleep 1
./build/tools/md_monitor --port 18931 --duration-ms 4000 \
  --inject gap --expect gap --server-inject duplicate
MONITOR_RC=$?
kill "$MD_SERVER_PID" 2>/dev/null
wait "$MD_SERVER_PID" 2>/dev/null
[ "$MONITOR_RC" -eq 0 ] || exit 1
# Rebalance leg: the elastic-membership suites (quorum gate, epoch fencing,
# hand-off choreography) under TSan — the monitor rides the elastic sweep's
# delivery streams from the sim threads while its report buffer is read out,
# the same concurrency surface the production embedding has — then a 20-seed
# monitored elastic sweep (join / graceful-leave / minority-partition churn;
# the monitor's [rebalance] continuity rule must stay silent) and the canned
# single-event plans as targeted repro smoke checks.
cmake --build build-tsan --target quorum_test fencing_test rebalance_chaos_test \
  || exit 1
./build-tsan/tests/quorum_test || exit 1
./build-tsan/tests/fencing_test || exit 1
./build-tsan/tests/rebalance_chaos_test || exit 1
./build/tools/md_chaos --seeds 20 --elastic --servers 4 --monitor --quiet || exit 1
./build/tools/md_chaos --seed 3 --plan join --quiet || exit 1
./build/tools/md_chaos --seed 4 --plan leave --quiet || exit 1
./build/tools/md_chaos --seed 6 --plan minority --quiet || exit 1

# Durability leg: the WAL suite under both sanitizers (framing/recovery code
# does byte-level parsing of deliberately damaged input — exactly where an
# out-of-bounds read would hide; the Log is also called from cache shard
# locks on many threads), a 20-seed monitored durability sweep (kill -9 and
# disk-fault plans; the monitor's [durability] exactly-once rule must stay
# silent), the canned crash / disk plans as targeted repros, a monitored
# self-test that must catch exactly the violation it injects, and the
# durability bench as a shape smoke check: it exits nonzero unless the
# local-WAL delta backfill beats full peer reconstruction.
cmake --build build-asan --target wal_test || exit 1
./build-asan/tests/wal_test || exit 1
cmake --build build-tsan --target wal_test || exit 1
./build-tsan/tests/wal_test || exit 1
./build/tools/md_chaos --seeds 20 --durability --monitor --quiet || exit 1
./build/tools/md_chaos --seed 5 --plan crash --quiet || exit 1
./build/tools/md_chaos --seed 9 --plan disk --quiet || exit 1
./build/tools/md_chaos --seed 3 --durability --monitor --inject durability \
  || exit 1
MD_BENCH_DUR_APPENDS=1000 MD_BENCH_DUR_MSGS=200 MD_BENCH_DUR_OUT=/dev/null \
  ./build/bench/bench_durability || exit 1

# Footprint leg (DESIGN.md §15): the slab allocator, flat maps and the
# topic-intern table under ASan (freed-slot poisoning is load-bearing: the
# death test proves a dangling Session pointer faults instead of reading a
# recycled slot) plus the registry churn-residue test; the lock-free
# TopicTable::NameOf publication and slab freelists under TSan; then the C10M
# footprint bench at a 100k-session smoke scale — it exits nonzero unless
# measured engine bytes/session stays within the budget, churn returns slab
# occupancy to baseline, and the live-engine smoke loses nothing.
cmake --build build-asan --target common_test core_test || exit 1
./build-asan/tests/common_test \
  --gtest_filter='Slab*:FlatMap*:SmallVector*:TopicIntern*' || exit 1
./build-asan/tests/core_test \
  --gtest_filter='RegistryTest.ChurnReturnsToBaseline' || exit 1
cmake --build build-tsan --target common_test || exit 1
./build-tsan/tests/common_test --gtest_filter='Slab*:TopicIntern*' || exit 1
MD_BENCH_C10M_SESSIONS=100000 MD_BENCH_C10M_SMOKE=64 \
  MD_BENCH_SECONDS=60 MD_BENCH_WARMUP=10 MD_BENCH_C10M_OUT=/dev/null \
  ./build/bench/bench_c10m || exit 1

# Flake gate: the client/server integration suite must survive repetition on
# a loaded machine — one pass can hide a racy wait, fifteen rarely do.
./build/tests/core_test --gtest_filter='AllTransports/ServerClientTest.*' \
  --gtest_repeat=15 --gtest_brief=1 || exit 1

: > bench_output.txt
for b in build/bench/*; do
  [ -x "$b" ] && [ -f "$b" ] || continue
  echo "===== $b =====" | tee -a bench_output.txt
  "$b" 2>&1 | tee -a bench_output.txt
  echo | tee -a bench_output.txt
done

# The change's src/ line count against its parent commit.
scripts/src_loc_delta.sh
