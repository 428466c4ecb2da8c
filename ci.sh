#!/bin/sh
# Offline CI: build, test, lint. No network access is required or used.
#
#   ./ci.sh          # the full tier-1 gate
#
# Mirrors what reviewers run locally; keep it fast and deterministic.
set -eu

export CARGO_NET_OFFLINE=true

echo "== build (release) =="
cargo build --release --workspace --offline

echo "== perfbench (compile check) =="
# The benchmark package is a workspace of its own, so the build above never
# compiles it; an API change that breaks it must fail here, not at the
# benchmark run. --locked fails instead of rewriting perfbench/Cargo.lock.
CARGO_TARGET_DIR=target/perfbench \
    cargo check --offline --locked --manifest-path perfbench/Cargo.toml

echo "== production crates do not link the scan reference =="
# lbr-reference (msa_scan, build_progression) is the differential oracle
# for the incremental engine: only test targets, benches and the fuzz
# harness may depend on it.
for crate in lbr-core lbr-logic lbr-jreduce lbr-service lbr-stackvm lbr-classfile \
    lbr-decompiler; do
    deps=$(cargo tree --offline -e normal -p "$crate")
    if echo "$deps" | grep -q "lbr-reference"; then
        echo "$crate links lbr-reference outside its tests" >&2
        exit 1
    fi
done

echo "== test (workspace) =="
cargo test --workspace -q --offline

echo "== clippy (deny warnings) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== rustfmt (check) =="
cargo fmt --all --check

echo "== rustdoc (deny warnings) =="
# Broken or private intra-doc links fail here, including links left
# dangling when an item they name is deleted.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== speculative probing determinism smoke =="
# --probe-threads must be a pure wall-clock optimisation: a 2-thread run of
# the small suite has to be bit-identical (calls, sizes, cache totals) to
# the sequential one.
smoke_dir=$(mktemp -d)
svc_pid=""
cleanup() {
    [ -z "$svc_pid" ] || kill -9 "$svc_pid" 2>/dev/null || true
    rm -rf "$smoke_dir"
}
trap cleanup EXIT
./target/release/eval --experiment fig8a --format both --programs 1 --scale 0.5 \
    --probe-threads 1 --json "$smoke_dir/seq.json" >/dev/null
./target/release/eval --experiment fig8a --format both --programs 1 --scale 0.5 \
    --probe-threads 2 --json "$smoke_dir/par.json" >/dev/null
grep -q '"format": "stackvm"' "$smoke_dir/seq.json"
# The scan baseline is a test oracle, not an option: eval rejects --legacy
# as an unknown flag.
legacy_status=0
./target/release/eval --legacy >/dev/null 2>&1 || legacy_status=$?
[ "$legacy_status" -eq 2 ] || {
    echo "eval --legacy exited $legacy_status, expected 2 (unknown flag)" >&2
    exit 1
}
./target/release/bench_compare --identical "$smoke_dir/seq.json" "$smoke_dir/par.json"
# Trace-guided runs plain GBR's loop with a gallop boundary search, so it
# speculates too: its 2-thread reduction must match the sequential one's
# bytes and trace digest on both formats.
./target/release/gen --seed 7 --decompiler a --out "$smoke_dir/tg.lbrc" 2>/dev/null
./target/release/gen --format stackvm --seed 9 --decompiler a \
    --out "$smoke_dir/tg.lbrs" 2>/dev/null
for tg in classfile:tg.lbrc stackvm:tg.lbrs; do
    fmt=${tg%%:*}
    tg_in="$smoke_dir/${tg#*:}"
    for t in 1 2; do
        ./target/release/reduce --format "$fmt" --input "$tg_in" --decompiler a \
            --strategy logical/trace-guided --probe-threads "$t" \
            --out "$tg_in.$t" --json "$tg_in.$t.json" >/dev/null 2>&1
    done
    cmp "$tg_in.1" "$tg_in.2"
    tg_seq=$(grep -o '"trace_digest":"[0-9a-f]*"' "$tg_in.1.json")
    tg_par=$(grep -o '"trace_digest":"[0-9a-f]*"' "$tg_in.2.json")
    [ -n "$tg_seq" ] && [ "$tg_seq" = "$tg_par" ]
done

echo "== exact pin (the compare suite reproduces BENCH_baseline.json) =="
# Predicate calls, sizes, classes and cache totals are deterministic, so
# every (format, benchmark, strategy) row of the committed baseline must
# come back exactly: a change that moves any of them changed what the
# reducer computes, not just how fast. Wall times are not compared here;
# BENCH_GATE=1 below gates those.
./target/release/eval --experiment compare --format both --programs 2 --scale 0.6 \
    --threads 2 --repeats 1 --json "$smoke_dir/pin.json" >/dev/null
./target/release/bench_compare --identical BENCH_baseline.json "$smoke_dir/pin.json"

echo "== strategy registry smoke (--list-strategies enumerates the zoo) =="
# The CLI's strategy table is generated from the registry, not a hardcoded
# list: the baseline zoo and the trace-guided mode must show up with their
# capability flags.
strategies=$(./target/release/reduce --list-strategies)
for s in "logical/greedy" "jreduce" "ddmin-items" "hdd" "logical/trace-guided"; do
    echo "$strategies" | grep -q "^$s " || {
        echo "--list-strategies is missing $s" >&2
        exit 1
    }
done
for cap in model resumable speculative; do
    echo "$strategies" | grep "^logical/trace-guided " | grep -q "$cap"
done

echo "== reduction daemon smoke (identical results, kill -9 resume) =="
# A daemon job must be bit-identical to an in-process `reduce` run, and a
# daemon killed with SIGKILL mid-job must resume the job from its checkpoint
# after restart, past a torn cache batch, with the persistent oracle cache
# serving warm hits.
svc="$smoke_dir/service"
wait_daemon() {
    i=0
    while ! ./target/release/reduce-client --state-dir "$svc" ping >/dev/null 2>&1; do
        i=$((i + 1))
        [ "$i" -lt 100 ] || { echo "daemon did not come up" >&2; exit 1; }
        sleep 0.1
    done
}
./target/release/gen --seed 7 --decompiler a --out "$smoke_dir/daemon.lbrc" 2>/dev/null
./target/release/reduce --input "$smoke_dir/daemon.lbrc" --decompiler a \
    --out "$smoke_dir/ref.lbrc" --json "$smoke_dir/ref.json" >/dev/null 2>&1
# The connection plane has no shard count and the daemon no result store.
svc_help=$(./target/release/lbr-serviced --help)
for gone in --shards --memoize; do
    if echo "$svc_help" | grep -q -- "$gone"; then
        echo "lbr-serviced --help still lists $gone" >&2
        exit 1
    fi
done

./target/release/lbr-serviced --state-dir "$svc" --workers 2 >/dev/null &
svc_pid=$!
wait_daemon
./target/release/reduce-client --state-dir "$svc" submit \
    --input "$smoke_dir/daemon.lbrc" --decompiler a \
    --out "$smoke_dir/daemon-out.lbrc" --wait >"$smoke_dir/daemon-result.json"
cmp "$smoke_dir/ref.lbrc" "$smoke_dir/daemon-out.lbrc"
ref_digest=$(grep -o '"trace_digest":"[0-9a-f]*"' "$smoke_dir/ref.json")
got_digest=$(grep -o '"trace_digest":"[0-9a-f]*"' "$smoke_dir/daemon-result.json")
[ -n "$ref_digest" ] && [ "$ref_digest" = "$got_digest" ]
# A stackvm job through the same daemon must match the in-process stackvm
# reduction, bit for bit: the second frontend rides the same Input-generic
# pipeline.
./target/release/gen --format stackvm --seed 9 --decompiler a \
    --out "$smoke_dir/svm.lbrs" 2>/dev/null
./target/release/reduce --format stackvm --input "$smoke_dir/svm.lbrs" \
    --decompiler a --out "$smoke_dir/svm-ref.lbrs" \
    --json "$smoke_dir/svm-ref.json" >/dev/null 2>&1
svm_digest=$(grep -o '"trace_digest":"[0-9a-f]*"' "$smoke_dir/svm-ref.json")
[ -n "$svm_digest" ]
./target/release/reduce-client --state-dir "$svc" submit \
    --input "$smoke_dir/svm.lbrs" --format stackvm --decompiler a \
    --out "$smoke_dir/svm-daemon.lbrs" --wait >"$smoke_dir/svm-daemon.json"
cmp "$smoke_dir/svm-ref.lbrs" "$smoke_dir/svm-daemon.lbrs"
svm_daemon=$(grep -o '"trace_digest":"[0-9a-f]*"' "$smoke_dir/svm-daemon.json")
[ "$svm_digest" = "$svm_daemon" ]
grep -q '"format":"stackvm"' "$smoke_dir/svm-daemon.json"

# A hostile line nested 100,000 deep must draw an error on its own
# connection and leave the daemon serving.
svc_addr=$(cat "$svc/daemon.addr")
hostile_reply=$(bash -c '
    exec 3<>"/dev/tcp/${1%:*}/${1##*:}" || exit 1
    head -c 100000 /dev/zero | tr "\0" "[" >&3
    printf "\n" >&3
    IFS= read -r -t 10 reply <&3 && printf "%s\n" "$reply"
' hostile "$svc_addr")
echo "$hostile_reply" | grep -q '"ok":false' || {
    echo "hostile line drew no error reply: $hostile_reply" >&2
    exit 1
}
./target/release/reduce-client --state-dir "$svc" ping >/dev/null

# Kill -9 mid-job: a fresh container (cold cache, so probes really sleep),
# slowed-down probes, wait for the first checkpoint, then SIGKILL the daemon
# and restart it over the same state directory.
./target/release/gen --seed 8 --decompiler a --out "$smoke_dir/slow.lbrc" 2>/dev/null
./target/release/reduce --input "$smoke_dir/slow.lbrc" --decompiler a \
    --out "$smoke_dir/ref2.lbrc" >/dev/null 2>&1
job_id=$(./target/release/reduce-client --state-dir "$svc" submit \
    --input "$smoke_dir/slow.lbrc" --decompiler a --probe-latency-micros 20000 \
    --out "$smoke_dir/resumed.lbrc" | grep -o '[0-9]*')
i=0
while [ ! -f "$svc/job-$job_id.ckpt" ]; do
    i=$((i + 1))
    [ "$i" -lt 300 ] || { echo "job $job_id never checkpointed" >&2; exit 1; }
    sleep 0.1
done
kill -9 "$svc_pid"
wait "$svc_pid" 2>/dev/null || true
# A save killed mid-append leaves a batch without its commit line behind the
# last committed one; the restarted daemon must discard that torn tail, not
# load it or refuse to start.
[ -f "$svc/oracle.cache" ]
printf '00000000000000ab 40 1 7 1,2,3\n00000000000000ab 40 0 9 4,1' \
    >>"$svc/oracle.cache"
./target/release/lbr-serviced --state-dir "$svc" --workers 2 >/dev/null &
svc_pid=$!
wait_daemon
./target/release/reduce-client --state-dir "$svc" result --id "$job_id" --wait \
    >"$smoke_dir/resumed.json"
grep -q '"resumed":true' "$smoke_dir/resumed.json"
cmp "$smoke_dir/ref2.lbrc" "$smoke_dir/resumed.lbrc"
# A fresh identical job after the restart must reproduce the reference digest
# and be served from the disk-loaded (warm) cache.
./target/release/reduce-client --state-dir "$svc" submit \
    --input "$smoke_dir/daemon.lbrc" --decompiler a \
    --out "$smoke_dir/warm.lbrc" --wait >"$smoke_dir/warm.json"
warm_digest=$(grep -o '"trace_digest":"[0-9a-f]*"' "$smoke_dir/warm.json")
[ "$ref_digest" = "$warm_digest" ]
cmp "$smoke_dir/ref.lbrc" "$smoke_dir/warm.lbrc"
./target/release/reduce-client --state-dir "$svc" stats >"$smoke_dir/stats.json"
grep -o '"warm_hits":[0-9]*' "$smoke_dir/stats.json" | grep -qv ':0$'
./target/release/reduce-client --state-dir "$svc" shutdown >/dev/null
wait "$svc_pid" 2>/dev/null || true
svc_pid=""

echo "== binary framing smoke (byte-identical to JSON framing) =="
# The compact binary wire format is an encoding, not a semantic change: the
# same job submitted over --binary must produce byte-identical output and
# the same trace digest as the JSON-framed reference run above.
./target/release/lbr-serviced --state-dir "$svc" --workers 2 >/dev/null &
svc_pid=$!
wait_daemon
./target/release/reduce-client --state-dir "$svc" --binary submit \
    --input "$smoke_dir/daemon.lbrc" --decompiler a \
    --out "$smoke_dir/binary.lbrc" --wait >"$smoke_dir/binary.json"
bin_digest=$(grep -o '"trace_digest":"[0-9a-f]*"' "$smoke_dir/binary.json")
[ -n "$bin_digest" ] && [ "$ref_digest" = "$bin_digest" ]
cmp "$smoke_dir/ref.lbrc" "$smoke_dir/binary.lbrc"
./target/release/reduce-client --state-dir "$svc" shutdown >/dev/null
wait "$svc_pid" 2>/dev/null || true
svc_pid=""

echo "== saturation smoke (fixed seed, queue-full must shed, not hang) =="
# Offered load far above a tiny queue's capacity: every arrival must either
# complete or be shed with an explicit retry_after_ms — never time out.
./target/release/loadgen --smoke --seed 1

echo "== differential fuzzing gate (fixed seed, every progression) =="
# A fixed-seed campaign across every progression — including the P13 and
# P15 baseline-zoo runs (HDD, trace-guided GBR) — must come back clean. The
# case stream mixes both frontends and samples the adversarial workload
# shapes (constraint-dense, wide-flat, deep-chain, multi-error) one case
# in four; the
# seed pins the exact stream, so a violation here is reproducible with
# the printed `fuzz --replay` command.
fuzz_status=0
fuzz_out=$(./target/release/fuzz --budget-secs 60 --seed 0xC0FFEE --min-cases 200 \
    --out-dir "$smoke_dir") || fuzz_status=$?
echo "$fuzz_out"
[ "$fuzz_status" -eq 0 ] || exit "$fuzz_status"
# Both oracles' memos must stay in the campaign: I9 has to have checked
# candidates of each format, and their byte sizes against the writers.
# Likewise the I4 chain check, which replays the progressions of the
# reference and trace-guided runs through the scan reference; it counts
# only chains that recorded at least one checkpoint.
for format in classfile stackvm; do
    if ! echo "$fuzz_out" | grep -Eq "I9 checks:.*$format [1-9]"; then
        echo "fuzz campaign ran no I9 check on $format cases" >&2
        exit 1
    fi
    if ! echo "$fuzz_out" | grep -Eq "I9 size checks:.*$format [1-9]"; then
        echo "fuzz campaign ran no I9 size check on $format cases" >&2
        exit 1
    fi
    if ! echo "$fuzz_out" | grep -Eq "I4 chain checks:.*$format [1-9]"; then
        echo "fuzz campaign ran no I4 chain check on $format cases" >&2
        exit 1
    fi
done
# The classfile predicate checks only the classes that can print a
# baseline message; I9 has to have compared it with the reference on
# candidates it accepts and on candidates it rejects.
if ! echo "$fuzz_out" | grep -Eq "I9 predicate checks: classfile [1-9][0-9]* accepted [1-9][0-9]* rejected"; then
    echo "fuzz campaign compared no accepted or no rejected classfile predicate answer" >&2
    exit 1
fi

echo "== fuzzing self-test (broken oracle must be caught and shrunk) =="
# Prove the harness can still catch bugs: with the deliberately lying
# oracle armed, the campaign must exit non-zero and leave a shrunk,
# replayable case file whose replay also exits non-zero.
broken_dir="$smoke_dir/broken"
mkdir -p "$broken_dir"
if ./target/release/fuzz --max-cases 3 --break-oracle --no-daemon \
    --seed 0xC0FFEE --out-dir "$broken_dir" >/dev/null 2>&1; then
    echo "broken-oracle campaign did not detect the planted bug" >&2
    exit 1
fi
broken_case=$(ls "$broken_dir"/FUZZ_CASE_*.json 2>/dev/null | head -n 1)
[ -n "$broken_case" ] || { echo "no shrunk case file was written" >&2; exit 1; }
if ./target/release/fuzz --replay "$broken_case" --no-daemon >/dev/null 2>&1; then
    echo "replay of $broken_case did not reproduce the violation" >&2
    exit 1
fi

# Optional wall-time gates against the committed baselines: BENCH_GATE=1 ./ci.sh
# BENCH_REBASELINE=1 ./ci.sh instead REGENERATES BENCH_baseline.json at this
# exact point in the script — after the fuzz campaign and the service
# smokes have loaded the machine — so the committed wall numbers are measured
# under the same conditions the gate later runs in (an idle-machine baseline
# makes every sub-second row read 10-20% slow inside a full CI run).
if [ "${BENCH_GATE:-0}" = "1" ] || [ "${BENCH_REBASELINE:-0}" = "1" ]; then
    # The compare experiment covers the full baseline zoo — jreduce,
    # logical/greedy, ddmin-items, hdd, logical/trace-guided — over both
    # frontends, and the baseline holds one aggregate entry per
    # (strategy, format) pair, so each
    # strategy is gated at its own level rather than hiding behind a
    # suite-wide total. Predicate calls are deterministic, so any increase
    # on any row fails the gate outright. Wall numbers are taken
    # sequentially (no cross-job core contention) as the minimum of nine
    # repeats — the same recipe that produced the committed baseline.
    #
    # The container's clock jitters in multi-second throttling phases, so
    # a wall-only trip is re-measured once from scratch before it fails
    # the build. The thresholds never change: a real regression fails
    # both attempts, and the predicate-call gate is deterministic either
    # way.
    measure_suites() {
        ./target/release/eval --experiment compare --format both \
            --programs 2 --scale 0.6 \
            --threads 1 --repeats 9 --json "$smoke_dir/current.json" >/dev/null
    }
    compare_suites() {
        echo "== bench gate (<=10% wall, 0% predicate-call regression vs BENCH_baseline.json) =="
        ./target/release/bench_compare BENCH_baseline.json "$smoke_dir/current.json"
    }
    measure_suites
    if [ "${BENCH_REBASELINE:-0}" = "1" ]; then
        echo "== rebaseline (BENCH_baseline.json from this machine, under CI load) =="
        cp "$smoke_dir/current.json" BENCH_baseline.json
    else
        if ! compare_suites; then
            echo "-- wall gate tripped; re-measuring once (calls are deterministic, wall is not) --"
            measure_suites
            compare_suites
        fi
    fi

    # Warm throughput and p95 are wall-clock-sensitive, so the drift threshold
    # is looser than the deterministic wall gate above; the 150 jobs/s floor on
    # the highest-worker run is absolute.
    service_gate() {
        echo "== service gate (warm >=150 jobs/s, <=30% drift vs BENCH_service.json) =="
        ./target/release/loadgen --out "$smoke_dir/service.json" >/dev/null
        ./target/release/bench_compare BENCH_service.json "$smoke_dir/service.json" \
            --service --threshold 30 --min-warm-jps 150
    }
    if ! service_gate; then
        echo "-- service gate tripped; re-measuring once --"
        service_gate
    fi
fi

echo "CI OK"
