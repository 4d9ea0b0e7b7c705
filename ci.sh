#!/usr/bin/env sh
# Tier-1 gate + clippy lint policy + fedval-lint static analysis.
#
#   ./ci.sh            build, test, clippy, rustdoc, rustfmt, bench
#                      --check, sweep invariance, serve smoke,
#                      sampled-Shapley smoke, fedchaos, perfbench smoke,
#                      fedval-lint
#
# The clippy stage lints every target of every package (tests, benches
# and examples included) under the lint levels declared once in the root
# Cargo.toml's [workspace.lints] table plus clippy.toml: panic paths
# outside tests, lossy casts, HashMap/HashSet, wall clocks, undocumented
# Results, printing from libraries, unjustified suppressions and clippy's
# default set are all denied (DESIGN.md §7). -D warnings makes any other
# warning fatal too, in the vendored path dependencies as well.
#
# The fedval-lint stage runs the checks clippy cannot make (float-literal
# equality, socket deadlines, lock order, guards across blocking calls,
# atomic orderings); any finding fails the build.
set -eu

echo "== cargo build --release --workspace"
# --workspace: the smokes below run the member crates' binaries
# (fedform, fedval-serve, fedload, fedchaos) from target/release, so they
# must be built from this checkout, not left over from an older build.
cargo build --release --workspace

echo "== cargo test -q (workspace; dev profile arms the lock-order checker)"
# Tests run under debug_assertions, so every OrderedMutex acquisition is
# recorded in the runtime lock-order graph and any witnessed cycle
# panics with its path (DESIGN.md §12). The run includes
# fedval-obs's lockorder self-tests, which prove the checker still panics
# on witnessed cycles: a silently disarmed checker would let the whole
# suite vouch for nothing, so their failure fails this stage like any
# other.
cargo test -q --workspace

echo "== clippy (workspace lint policy: every target, warnings denied)"
cargo clippy --workspace --all-targets --release -- -D warnings

echo "== cargo doc (rustdoc warnings denied: every intra-doc link resolves)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo fmt --check (the workspace is rustfmt's output)"
# perfbench/ is a workspace of its own, so --all leaves it alone.
cargo fmt --all --check

echo "== bench_pipeline --check (deterministic section + sweep speedup gate)"
# --threads 4 arms the ratcheted sweep.speedup floor: at >= 4 requested
# workers the parallel sweep leg must not be slower than the sequential
# one (within measurement tolerance). On single-core hosts run_sweep
# clamps its worker count, so the gate stays meaningful everywhere.
if ! cargo run -q -p fedval-bench --release --bin bench_pipeline -- --check --threads 4; then
    echo ""
    echo "ci.sh: BENCH_pipeline.json is stale or the sweep speedup regressed —"
    echo "either a change shifted a deterministic pipeline count (pivots, LP"
    echo "solves, coalition evaluations, simulation totals), or sweep.speedup fell below"
    echo "the ratcheted floor at 4 threads."
    echo "Regenerate with:  cargo run --release -p fedval-bench --bin bench_pipeline -- --threads 4"
    exit 1
fi

echo "== sweep thread-invariance (repro --csv at --threads 1 vs 4)"
sweep_tmp=$(mktemp -d)
trap 'rm -rf "$sweep_tmp" "${smoke_tmp:-}"' EXIT
mkdir -p "$sweep_tmp/t1" "$sweep_tmp/t4" "$sweep_tmp/svg"
# The --threads 1 run also renders the SVGs, into their own directory:
# the data/ diff below needs a directory holding the CSVs alone.
cargo run -q -p fedval-bench --release --bin repro -- all \
    --csv "$sweep_tmp/t1" --svg "$sweep_tmp/svg" --threads 1 > /dev/null
cargo run -q -p fedval-bench --release --bin repro -- all \
    --csv "$sweep_tmp/t4" --threads 4 > /dev/null
if ! diff -r "$sweep_tmp/t1" "$sweep_tmp/t4"; then
    echo ""
    echo "ci.sh: figure data differs between --threads 1 and --threads 4."
    echo "The sweep engine's determinism contract (DESIGN.md section 9) is"
    echo "broken: results must merge in input order, independent of scheduling."
    exit 1
fi
# The committed figure data is the behaviour oracle: a fresh run must
# reproduce every file in data/ byte for byte.
if ! diff -r data "$sweep_tmp/t1"; then
    echo ""
    echo "ci.sh: repro all --csv no longer reproduces the committed data/."
    echo "A change moved a paper figure. If the move is intended, regenerate"
    echo "with:  cargo run --release -p fedval-bench --bin repro -- all --csv data --svg figures"
    exit 1
fi
# The committed SVGs are pinned the same way: a change to the renderer
# or to a figure's data must show up in figures/ too.
if ! diff -r figures "$sweep_tmp/svg"; then
    echo ""
    echo "ci.sh: repro all --svg no longer reproduces the committed figures/."
    echo "A change moved a paper figure. If the move is intended, regenerate"
    echo "with:  cargo run --release -p fedval-bench --bin repro -- all --csv data --svg figures"
    exit 1
fi

echo "== fedval-serve smoke (loopback daemon + deterministic fedload)"
smoke_tmp=$(mktemp -d)
./target/release/fedval-serve --addr 127.0.0.1:0 --warm \
    > "$smoke_tmp/serve.log" 2>&1 &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$smoke_tmp/serve.log")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "ci.sh: fedval-serve did not come up; log:"
    cat "$smoke_tmp/serve.log"
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
if ! ./target/release/fedload --addr "$addr" --connections 2 --requests 2000 \
        --kind mixed --seed 7 --out "$smoke_tmp/BENCH_serve_smoke.json" \
        --metrics "$smoke_tmp/load_metrics.json" \
        --scrape "$smoke_tmp/metrics_scrape.json" --shutdown; then
    echo ""
    echo "ci.sh: fedload failed — protocol errors or byte-identical-response"
    echo "mismatches against the live server (see report above)."
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
# The metrics scrape must be a well-formed exposition with a nonzero
# serve_req_ok (2000 requests just succeeded) plus the ring buffer.
if ! grep -q '# TYPE serve_req_ok counter' "$smoke_tmp/metrics_scrape.json" \
   || ! grep -Eq 'serve_req_ok [1-9][0-9]*' "$smoke_tmp/metrics_scrape.json" \
   || ! grep -q '"ring":\[' "$smoke_tmp/metrics_scrape.json"; then
    echo ""
    echo "ci.sh: the metrics query scrape is malformed or reports zero"
    echo "serve_req_ok after a successful load run:"
    cat "$smoke_tmp/metrics_scrape.json"
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
# The client-side registry dump must carry the sharded latency histogram.
if ! grep -q '"load.request_ns"' "$smoke_tmp/load_metrics.json"; then
    echo ""
    echo "ci.sh: fedload --metrics dump is missing load.request_ns:"
    cat "$smoke_tmp/load_metrics.json"
    kill "$serve_pid" 2>/dev/null || true
    exit 1
fi
if ! wait "$serve_pid"; then
    echo ""
    echo "ci.sh: fedval-serve exited nonzero — the drain abandoned queued work."
    cat "$smoke_tmp/serve.log"
    exit 1
fi
if ! grep -q "protocol_errors=0" "$smoke_tmp/serve.log"; then
    echo ""
    echo "ci.sh: server-side drain summary reports protocol errors:"
    cat "$smoke_tmp/serve.log"
    exit 1
fi

echo "== sampled Shapley (n<=16 validation, pinned n=200 sampled and n=16 exact shares, n=200 serve smoke)"
# Release-mode re-run of the estimator-vs-exact validation suite: the
# sampled phi must sit within its own certified CI of the 2^n solver on
# games small enough to enumerate (DESIGN.md §14).
cargo test -q -p fedval-coalition --release approx > /dev/null
approx_tmp=$(mktemp -d)
trap 'rm -rf "$sweep_tmp" "${smoke_tmp:-}" "${approx_tmp:-}"' EXIT
# The sampled CLI path must print the same bytes at any thread count
# (fixed RNG blocks folded in block order, DESIGN.md §14).
./target/release/fedval shares --synthetic 200:7 --threads 1 > "$approx_tmp/shares_t1.txt"
./target/release/fedval shares --synthetic 200:7 --threads 2 > "$approx_tmp/shares_t2.txt"
if ! cmp "$approx_tmp/shares_t1.txt" "$approx_tmp/shares_t2.txt"; then
    echo ""
    echo "ci.sh: fedval shares --synthetic 200:7 differs between --threads 1 and 2."
    echo "The permutation estimator leaked scheduling order into its fold."
    exit 1
fi
# The bytes themselves are pinned too: a faster value walk or estimator
# must print the same shares, CIs and V(N) as the one that recorded
# this digest.
shares_sha=$(sha256sum < "$approx_tmp/shares_t1.txt" | cut -d' ' -f1)
if [ "$shares_sha" != "dce3420b93ab4a9f6a1ab4559185cbfa405570b3c07a440410054b022da97276" ]; then
    echo ""
    echo "ci.sh: fedval shares --synthetic 200:7 printed different bytes (sha256 $shares_sha)."
    echo "The sampled Shapley output changed; it must stay byte-identical."
    head -5 "$approx_tmp/shares_t1.txt"
    exit 1
fi
# The exact walk is pinned the same way: `fedval shares --synthetic 16`
# fills its 2^16 coalition table along Gray-code blocks (DESIGN.md §9),
# so the digest covers every value the walk computes, at 1 and 2
# threads.
./target/release/fedval shares --synthetic 16 --threads 1 > "$approx_tmp/exact_t1.txt"
./target/release/fedval shares --synthetic 16 --threads 2 > "$approx_tmp/exact_t2.txt"
if ! cmp "$approx_tmp/exact_t1.txt" "$approx_tmp/exact_t2.txt"; then
    echo ""
    echo "ci.sh: fedval shares --synthetic 16 differs between --threads 1 and 2."
    echo "The table fill leaked scheduling order into its values."
    exit 1
fi
exact_sha=$(sha256sum < "$approx_tmp/exact_t1.txt" | cut -d' ' -f1)
if [ "$exact_sha" != "52fce133d688324eae47bbbf53ce7ba9d6d84add37e1516198d78e372f9fdfb1" ]; then
    echo ""
    echo "ci.sh: fedval shares --synthetic 16 printed different bytes (sha256 $exact_sha)."
    echo "The exact Shapley output changed; it must stay byte-identical."
    head -5 "$approx_tmp/exact_t1.txt"
    exit 1
fi
# A 200-authority synthetic federation is far past every exact cap; the
# daemon must answer shapley queries via the sampled path, and fedload's
# canonical-bytes check proves every response in the run is
# byte-identical (seeded estimator, thread-count invariant).
./target/release/fedval-serve --addr 127.0.0.1:0 --synthetic 200:7 \
    --approx-samples 32 --threads 2 > "$approx_tmp/serve.log" 2>&1 &
approx_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$approx_tmp/serve.log")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "ci.sh: fedval-serve --synthetic 200 did not come up; log:"
    cat "$approx_tmp/serve.log"
    kill "$approx_pid" 2>/dev/null || true
    exit 1
fi
if ! ./target/release/fedload --addr "$addr" --connections 2 --requests 50 \
        --kind shapley --seed 7 --shutdown > "$approx_tmp/load.json"; then
    echo ""
    echo "ci.sh: fedload failed against the n=200 sampled-Shapley daemon —"
    echo "either a request errored or two shapley responses differed byte"
    echo "for byte (the seeded estimator must be deterministic)."
    cat "$approx_tmp/load.json"
    kill "$approx_pid" 2>/dev/null || true
    exit 1
fi
if ! grep -q '"mismatches": 0' "$approx_tmp/load.json" \
   || ! grep -q '"protocol_errors": 0' "$approx_tmp/load.json"; then
    echo ""
    echo "ci.sh: n=200 shapley responses were not byte-identical across the run:"
    cat "$approx_tmp/load.json"
    kill "$approx_pid" 2>/dev/null || true
    exit 1
fi
if ! wait "$approx_pid"; then
    echo ""
    echo "ci.sh: fedval-serve --synthetic 200 exited nonzero."
    cat "$approx_tmp/serve.log"
    exit 1
fi

echo "== fedform formation smoke (n=200 churn, fingerprint invariance)"
# Seeded hedonic merge/split dynamics on the 200-authority synthetic
# federation: the full stdout — round trajectory, stability verdict,
# payoff table, fingerprints — must be byte-identical across repeated
# runs AND across thread counts (DESIGN.md §15). A diff here means the
# engine leaked scheduling order into a committed surface.
form_tmp=$(mktemp -d)
trap 'rm -rf "$sweep_tmp" "${smoke_tmp:-}" "${approx_tmp:-}" "${form_tmp:-}"' EXIT
./target/release/fedform --synthetic 200:7 --rounds 12 --approx-samples 8 \
    --threads 4 > "$form_tmp/t4_run1.txt"
./target/release/fedform --synthetic 200:7 --rounds 12 --approx-samples 8 \
    --threads 4 > "$form_tmp/t4_run2.txt"
./target/release/fedform --synthetic 200:7 --rounds 12 --approx-samples 8 \
    --threads 1 > "$form_tmp/t1_run1.txt"
if ! diff "$form_tmp/t4_run1.txt" "$form_tmp/t4_run2.txt"; then
    echo ""
    echo "ci.sh: two identical fedform invocations produced different bytes —"
    echo "the formation engine is not run-to-run deterministic."
    exit 1
fi
if ! diff "$form_tmp/t4_run1.txt" "$form_tmp/t1_run1.txt"; then
    echo ""
    echo "ci.sh: fedform output differs between --threads 4 and --threads 1."
    echo "The merge/split engine's fold discipline (input-order batched"
    echo "evaluation) is broken: thread count leaked into the trajectory or"
    echo "payoff table."
    exit 1
fi
if ! grep -q "outcome fingerprint:" "$form_tmp/t4_run1.txt"; then
    echo ""
    echo "ci.sh: fedform output is missing its outcome fingerprint:"
    cat "$form_tmp/t4_run1.txt"
    exit 1
fi

echo "== fedform exact payoffs (defaults: n=16, pinned fingerprint)"
# Default flags keep every payoff under the exact-Shapley cap, the path
# the n=200 run above never takes. The pinned fingerprint is the one
# perfbench/reference.tsv records for every form-n16 input variant.
./target/release/fedform --threads 1 > "$form_tmp/n16_t1.txt"
./target/release/fedform --threads 4 > "$form_tmp/n16_t4.txt"
if ! diff "$form_tmp/n16_t1.txt" "$form_tmp/n16_t4.txt"; then
    echo ""
    echo "ci.sh: fedform (exact payoffs) differs between --threads 1 and --threads 4."
    exit 1
fi
if ! grep -q "outcome fingerprint: 1d5b40d282a3729f" "$form_tmp/n16_t1.txt"; then
    echo ""
    echo "ci.sh: fedform defaults no longer print the pinned outcome fingerprint:"
    cat "$form_tmp/n16_t1.txt"
    exit 1
fi

echo "== fedchaos smoke (seeded chaos campaign vs hardened daemon)"
chaos_tmp=$(mktemp -d)
trap 'rm -rf "$sweep_tmp" "${smoke_tmp:-}" "${approx_tmp:-}" "${form_tmp:-}" "${chaos_tmp:-}"' EXIT
./target/release/fedval-serve --addr 127.0.0.1:0 --warm --chaos-harness \
    --max-connections 24 --io-timeout-ms 500 --frame-deadline-ms 1000 \
    --idle-timeout-ms 5000 > "$chaos_tmp/serve.log" 2>&1 &
chaos_pid=$!
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$chaos_tmp/serve.log")
    [ -n "$addr" ] && break
    sleep 0.1
done
if [ -z "$addr" ]; then
    echo "ci.sh: fedval-serve (chaos harness) did not come up; log:"
    cat "$chaos_tmp/serve.log"
    kill "$chaos_pid" 2>/dev/null || true
    exit 1
fi
fds_before=$(ls "/proc/$chaos_pid/fd" | wc -l)
# Seed 3 at 12 rounds deterministically includes connect-flood AND
# panic-injection rounds, so both the shed and worker_restarts counters
# are exercised (verified; the fault menu is a pure function of seed).
if ! ./target/release/fedchaos --addr "$addr" --seed 3 --rounds 12 \
        --flood 32 --hold-ms 1200 --panic-injection --expect-stall-close \
        --stats > "$chaos_tmp/chaos.json"; then
    echo ""
    echo "ci.sh: fedchaos campaign failed (report above) — a survival"
    echo "invariant broke: probe mismatch, unanswered frame, unclosed stall,"
    echo "or unshed flood. Reproduce with the printed seed."
    cat "$chaos_tmp/chaos.json"
    kill "$chaos_pid" 2>/dev/null || true
    exit 1
fi
# Every stdout line (the seed's report, then the stats payload) must be
# one JSON value, and the seed line's report must say it passed.
if ! python3 - "$chaos_tmp/chaos.json" <<'PY'
import json
import sys

lines = [json.loads(line) for line in open(sys.argv[1])]
seeds = [line for line in lines if isinstance(line, dict) and "seed" in line]
sys.exit(0 if len(seeds) == 1 and seeds[0]["report"]["passed"] is True else 1)
PY
then
    echo ""
    echo "ci.sh: fedchaos printed a line that is not JSON, or no seed line"
    echo "whose report passed:"
    cat "$chaos_tmp/chaos.json"
    kill "$chaos_pid" 2>/dev/null || true
    exit 1
fi
sleep 1
fds_after=$(ls "/proc/$chaos_pid/fd" | wc -l)
if [ "$fds_after" -gt $((fds_before + 4)) ]; then
    echo ""
    echo "ci.sh: fd leak in fedval-serve under chaos: $fds_before fds before"
    echo "the campaign, $fds_after after. Stalled/reset connections are not"
    echo "being reaped."
    kill "$chaos_pid" 2>/dev/null || true
    exit 1
fi
if ! grep -q '"worker_restarts":[1-9]' "$chaos_tmp/chaos.json"; then
    echo ""
    echo "ci.sh: injected panics did not surface as worker_restarts in stats:"
    cat "$chaos_tmp/chaos.json"
    kill "$chaos_pid" 2>/dev/null || true
    exit 1
fi
if ! grep -q '"shed":[1-9]' "$chaos_tmp/chaos.json"; then
    echo ""
    echo "ci.sh: connect floods did not surface as shed connections in stats:"
    cat "$chaos_tmp/chaos.json"
    kill "$chaos_pid" 2>/dev/null || true
    exit 1
fi
if ! ./target/release/fedload --addr "$addr" --connections 2 --requests 500 \
        --kind mixed --seed 11 --retry 3 --shutdown > "$chaos_tmp/load.json"; then
    echo ""
    echo "ci.sh: fedload --retry failed against the post-chaos server."
    cat "$chaos_tmp/load.json"
    kill "$chaos_pid" 2>/dev/null || true
    exit 1
fi
if ! wait "$chaos_pid"; then
    echo ""
    echo "ci.sh: chaos-harness fedval-serve exited nonzero — drain abandoned work."
    cat "$chaos_tmp/serve.log"
    exit 1
fi
if ! grep -q "abandoned=0" "$chaos_tmp/serve.log"; then
    echo ""
    echo "ci.sh: chaos-harness drain summary missing abandoned=0:"
    cat "$chaos_tmp/serve.log"
    exit 1
fi
if ! grep -q "worker_restarts=" "$chaos_tmp/serve.log"; then
    echo ""
    echo "ci.sh: drain summary no longer reports worker_restarts:"
    cat "$chaos_tmp/serve.log"
    exit 1
fi

echo "== perfbench smoke (the benchmark builds against this tree; every workload correct)"
# perfbench/ is a nested Cargo workspace compiled against the crates'
# public API, so a change that breaks that API only shows here. One short
# run per workload also checks every answer against the fingerprints in
# perfbench/reference.tsv: each workload's last stdout line is its JSON
# result, which must say "correct": true with no failed operations.
perf_tmp=$(mktemp -d)
trap 'rm -rf "$sweep_tmp" "${smoke_tmp:-}" "${approx_tmp:-}" "${form_tmp:-}" "${chaos_tmp:-}" "${perf_tmp:-}"' EXIT
if ! python3 perfbench/run.py --workload all --seed 0 --seconds 1 --trace 0 \
        > "$perf_tmp/perfbench.txt"; then
    echo ""
    echo "ci.sh: perfbench did not build or a workload exited nonzero:"
    cat "$perf_tmp/perfbench.txt"
    exit 1
fi
if ! python3 - "$perf_tmp/perfbench.txt" <<'PY'
import json
import sys

results = {}
workload = None
for line in open(sys.argv[1]):
    line = line.strip()
    if line.startswith("== "):
        workload = line[3:]
        results[workload] = None
    elif workload is not None and line:
        results[workload] = line
ok = bool(results)
for workload, last in results.items():
    try:
        result = json.loads(last or "")
    except ValueError:
        result = {}
    good = isinstance(result, dict) and result.get("correct") is True and result.get("failed") == 0
    print(f"perfbench {workload}: {'correct' if good else 'NOT CORRECT'}")
    ok = ok and good
sys.exit(0 if ok else 1)
PY
then
    echo ""
    echo "ci.sh: a perfbench workload's result is not correct with 0 failed"
    echo "operations (or no workload ran):"
    cat "$perf_tmp/perfbench.txt"
    exit 1
fi
# Building the benchmark must not rewrite it: dropping a dependency edge
# (a workspace crate that no longer lists some dependency) makes cargo
# rewrite perfbench/Cargo.lock on every build, and perfbench/ is the
# benchmark's own tree. Outside a git work tree there is nothing to
# compare against.
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
    perf_changed=$(git status --porcelain -- perfbench)
    if [ -n "$perf_changed" ]; then
        echo ""
        echo "ci.sh: building and running perfbench changed files under perfbench/:"
        echo "$perf_changed"
        echo "perfbench/ is the benchmark's own tree: a change that rewrites it"
        echo "(such as a dependency edge that cargo drops from perfbench/Cargo.lock)"
        echo "belongs in a change to the benchmark."
        exit 1
    fi
fi

echo "== fedval-lint (the checks clippy cannot make)"
if ! cargo run -q -p fedval-lint --release; then
    echo ""
    echo "ci.sh: fedval-lint reported the findings listed above; any finding"
    echo "fails. Fix each one, or justify it with an inline marker:"
    echo "    // lint: allow(<rule>) — <reason>"
    echo "For the reasoning behind any rule, run:"
    echo "    cargo run -p fedval-lint --release -- --explain <rule>"
    exit 1
fi

echo "ci.sh: all green"
