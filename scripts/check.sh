#!/usr/bin/env bash
# Graceful-degradation gate: build, format check (rustfmt), lint (clippy
# at -D warnings), test, statically certify every instrumented suite
# variant (pythia-lint), then smoke-run the reproduce binary and fail on
# any `internal` error — the one taxonomy variant that means the harness
# itself is broken (DESIGN.md, "Error taxonomy") — and on any `ERROR`
# cell in the motiv, nginx and campaign tables. Every JSON output it
# gates on (smoke and ref-tier BENCH_suite.json, BENCH_server.json,
# pythia-lint --json) must parse under `jq empty`.
#
# `setup`/`fault`/`detection` statuses in the smoke JSON are data, not CI
# failures; they still flip reproduce's exit code, which this script
# reports but tolerates, so a hostile benchmark can't mask an internal bug.
#
# Usage: scripts/check.sh [out-dir]   (default: check-out)
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="${1:-check-out}"
mkdir -p "$OUT"

# Every JSON file this script gates on must parse; a missing jq is a
# failure, not a skipped check.
if ! command -v jq >/dev/null; then
    echo "FAIL: jq is not installed; it validates the JSON outputs checked below" >&2
    exit 1
fi
require_json() {
    if ! jq empty "$1"; then
        echo "FAIL: $1 is not valid JSON" >&2
        exit 1
    fi
}

echo "== cargo build --release --workspace =="
# --workspace: the root manifest is both a package and a workspace, so a
# bare `cargo build` would only build the root package — leaving the
# `reproduce` and `pythia-lint` binaries this script runs stale.
cargo build --release --workspace

echo "== cargo fmt --all --check =="
# The tree is rustfmt-clean; an unformatted change fails here instead of
# leaving unrelated hunks for the next `cargo fmt` to rewrite.
cargo fmt --all --check

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings) =="
# The analysis/passes/core crates carry #![warn(missing_docs)]; denying
# rustdoc warnings here turns a stale or missing doc into a CI failure.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo test -q --workspace =="
# --workspace for the same reason as the build above: a bare `cargo
# test` from the root only tests the root package.
cargo test -q --workspace

echo "== long tests: cargo test --release --test vm_reset -- --ignored =="
# The long variants of tier-1 tests: more seeds than the tier-1 run.
cargo test -q --release --test vm_reset -- --ignored

echo "== benchmark adapter: build + test =="
# The benchmark is its own package outside the workspace and calls the
# library crates directly (lint_instrumented, instrument_with,
# prune_obligations, OverflowReach::compute, ...); build and test it here
# so an API change cannot break it unnoticed.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== pythia-lint --all-schemes =="
# Static certification gate: every suite benchmark, instrumented under
# every scheme, must satisfy all protection invariants (DESIGN.md §5c).
# Any diagnostic is fatal — a violation means a pass emitted unsound
# instrumentation, which would invalidate every downstream measurement.
lint_status=0
target/release/pythia-lint --all-schemes > "$OUT/lint-all-schemes.txt" || lint_status=$?
if [ "$lint_status" -ne 0 ]; then
    cat "$OUT/lint-all-schemes.txt" >&2
    echo "FAIL: pythia-lint --all-schemes exited $lint_status" >&2
    exit 1
fi
# Golden gate: the per-report obligation counts must match the committed
# file exactly, so a change that silently drops (or adds) certifier
# checks fails here. A change that alters the rules on purpose
# regenerates scripts/golden/lint-all-schemes.txt and says why.
if ! diff -u scripts/golden/lint-all-schemes.txt "$OUT/lint-all-schemes.txt"; then
    echo "FAIL: pythia-lint --all-schemes differs from scripts/golden/lint-all-schemes.txt" >&2
    exit 1
fi
tail -1 "$OUT/lint-all-schemes.txt"
target/release/pythia-lint --all-schemes --json > "$OUT/lint-all-schemes.json"
require_json "$OUT/lint-all-schemes.json"

echo "== reproduce --smoke --bench-json =="
smoke_status=0
target/release/reproduce --smoke --bench-json --out "$OUT" >/dev/null || smoke_status=$?
JSON="$OUT/BENCH_suite.json"

if [ ! -f "$JSON" ]; then
    echo "FAIL: smoke run produced no $JSON" >&2
    exit 1
fi
require_json "$JSON"
if [ ! -f "$OUT/profile.md" ]; then
    echo "FAIL: smoke run wrote no profile.md next to $JSON" >&2
    exit 1
fi
if grep -q '"status": "internal"' "$JSON"; then
    echo "FAIL: internal error in smoke suite — harness bug:" >&2
    grep -B2 '"status": "internal"' "$JSON" >&2
    exit 1
fi
if [ "$smoke_status" -ne 0 ]; then
    # Non-internal failures (setup/fault/detection) are typed, reported,
    # and unexpected in the smoke set: surface them as a failure too.
    echo "FAIL: smoke suite had failing benchmarks (exit $smoke_status):" >&2
    grep '"status"' "$JSON" >&2
    exit 1
fi

if grep -q '"lint": "violated"' "$JSON"; then
    echo "FAIL: a smoke benchmark failed static certification:" >&2
    grep '"lint"' "$JSON" >&2
    exit 1
fi

# Error-cell gate: the motiv, nginx and campaign sections render a
# failed adjudication, nginx worker or campaign as an `ERROR` table cell
# and reproduce still exits 0 — and the policy gate below diffs campaign
# across policies, so an error under every policy would pass it. Any
# `ERROR` cell in these sections is fatal.
echo "== ERROR-cell gate (motiv, nginx, campaign) =="
target/release/reproduce --smoke motiv nginx campaign > "$OUT/error-cells.md"
if grep -n 'ERROR' "$OUT/error-cells.md" >&2; then
    echo "FAIL: an ERROR cell in the motiv/nginx/campaign sections (above)" >&2
    exit 1
fi
echo "OK: motiv, nginx and campaign render no ERROR cell"

# Profiler gates: the JSON must carry the profile schema, every
# PA-instrumented scheme must actually execute PA operations, and the
# profiler's static PA scan must agree with passes::stats everywhere.
if ! grep -q '"profile": {' "$JSON"; then
    echo "FAIL: smoke JSON lacks the profile block" >&2
    exit 1
fi
if ! grep -qE '^  "schema": 3,$' "$JSON"; then
    echo "FAIL: smoke JSON is not BENCH_suite.json schema 3:" >&2
    grep '"schema"' "$JSON" >&2
    exit 1
fi
# Every ok benchmark's profile block opens with its slice count.
ok_rows=$(grep -c '"status": "ok"' "$JSON" || true)
slice_rows=$(grep -cE '"profile": \{ "slices": [0-9]+,' "$JSON" || true)
if [ "$ok_rows" -ne "$slice_rows" ]; then
    echo "FAIL: $ok_rows ok benchmarks but $slice_rows profile blocks with \"slices\"" >&2
    exit 1
fi
if grep -E '"scheme": "(cpa|pythia)"' "$JSON" | grep -q '"pa_executed": 0'; then
    echo "FAIL: a PA-instrumented scheme executed zero PA operations:" >&2
    grep -E '"scheme": "(cpa|pythia)"' "$JSON" >&2
    exit 1
fi
if grep -q '"pa_static_match": false' "$JSON"; then
    echo "FAIL: profiler static PA scan disagrees with instrumentation stats:" >&2
    grep '"pa_static_match": false' "$JSON" >&2
    exit 1
fi

# Differential engine gate: the block-cached engine must be observation-
# preserving — one smoke pass per engine, rendered reports byte-identical.
# Everything a report can show (attack outcomes, metrics, overheads,
# profiles) goes through the VM, so a byte-identical report means the
# block engine reproduced every observable of the legacy interpreter.
echo "== engine differential gate (legacy vs block, smoke) =="
target/release/reproduce --smoke --engine legacy --bench-json --out "$OUT/engine-legacy" >/dev/null || true
target/release/reproduce --smoke --engine block --bench-json --out "$OUT/engine-block" >/dev/null || true
if ! diff -q "$OUT/engine-legacy/report.md" "$OUT/engine-block/report.md"; then
    echo "FAIL: legacy and block engines render different reports" >&2
    diff -u "$OUT/engine-legacy/report.md" "$OUT/engine-block/report.md" | head -50 >&2
    exit 1
fi
# The report shows no profile counter, so the engines' BENCH_suite.json
# must match too once the timing fields (`*_secs`, `*_share`, the
# retirement rates, `per_phase`) and the run's `engine` and `threads`
# are masked: that pins the opcode histograms (`top_opcodes`),
# `intrinsic_calls`, and the PA, DFI and heap counters of every run.
MASK_TIMING='s/("[a-z_]+_(secs|share)"|"retirement_minsts_per_sec"|"threads"): [0-9.]+/\1: _/g; s/"per_phase": \{[^}]*\}/"per_phase": _/; s/"engine": "[a-z]+"/"engine": _/'
if ! diff -u <(sed -E "$MASK_TIMING" "$OUT/engine-legacy/BENCH_suite.json") \
    <(sed -E "$MASK_TIMING" "$OUT/engine-block/BENCH_suite.json") > "$OUT/engine-json.diff"; then
    echo "FAIL: legacy and block engines record different counters in BENCH_suite.json" >&2
    head -30 "$OUT/engine-json.diff" >&2
    exit 1
fi
echo "OK: legacy and block engine reports and masked BENCH_suite.json are byte-identical"

# Campaign fork gate: on the block engine every smash forks from the
# paused benign run; on the legacy engine, which cannot pause, every
# smash replays the run from the start (DESIGN.md §5f). The smoke gate
# above never renders the campaign section, so render it at the
# standard tier on both engines: the two must be byte-identical, and
# equal to the committed scripts/golden/campaign.md, so a change that
# bends fork and replay alike fails too.
echo "== campaign gate (fork vs replay, golden) =="
target/release/reproduce --engine legacy campaign > "$OUT/campaign-legacy.md"
target/release/reproduce --engine block campaign > "$OUT/campaign-block.md"
if ! cmp "$OUT/campaign-legacy.md" "$OUT/campaign-block.md"; then
    echo "FAIL: the campaign section differs between replay (legacy) and fork (block)" >&2
    diff -u "$OUT/campaign-legacy.md" "$OUT/campaign-block.md" | head -30 >&2
    exit 1
fi
if ! diff -u scripts/golden/campaign.md "$OUT/campaign-block.md"; then
    echo "FAIL: the campaign section differs from scripts/golden/campaign.md" >&2
    exit 1
fi
echo "OK: forked and replayed campaigns render the golden section"

# Precision-stage gate: the field-sensitive points-to + bounds-proof
# pruner must drop at least one obligation on at least one smoke
# benchmark (mcf prunes; lbm and nginx legitimately don't). A zero
# everywhere means the precision stage silently stopped firing — the
# pruned builds are still certified by pythia-lint's OPT-01 above.
if ! grep -qE '"obligations_pruned": [1-9]' "$JSON"; then
    echo "FAIL: no smoke benchmark pruned any obligation — precision stage inert:" >&2
    grep '"obligations_pruned"' "$JSON" >&2
    exit 1
fi

# Context-solver gates: the context layer must prune Pythia heap-section
# obligations on at least one smoke benchmark (mcf prunes; lbm has no
# heap predicates and nginx legitimately doesn't), and no smoke
# benchmark may hit the solver's node-budget fallback — a fallback here
# means the budget regressed, silently
# degrading every context-derived proof to the insensitive relation.
if ! grep -qE '"pythia_heap_pruned": [1-9]' "$JSON"; then
    echo "FAIL: no smoke benchmark pruned a Pythia heap obligation — context layer inert:" >&2
    grep '"pythia_heap_pruned"' "$JSON" >&2
    exit 1
fi
if grep -q '"ctx_fallback": true' "$JSON"; then
    echo "FAIL: the context solver fell back to the insensitive relation on a smoke benchmark:" >&2
    grep '"ctx_fallback"' "$JSON" >&2
    exit 1
fi
if ! grep -qE '"contexts": [1-9]' "$JSON"; then
    echo "FAIL: the context solver explored no calling contexts on the smoke set:" >&2
    grep '"contexts"' "$JSON" >&2
    exit 1
fi
echo "OK: context solver prunes heap obligations with zero budget fallbacks"

# Policy differential gate: the same smoke suite under every context
# policy reproduce accepts (DESIGN.md §5j). The attack-outcome figures
# (fig7b branch coverage, dist attack distance, campaign detection
# rates) must be byte-identical across policies — a sharper relation
# may only prune proof obligations, never change a detection. Overhead
# figures (fig4a etc.) legitimately shift with the policy: pruning
# removes instrumentation, which is the point. Each run must carry its
# own policy label, the per-benchmark pruned counts may only grow along
# the refinement chain, the summary policies may not hit the budget
# fallback, and a removed policy name must be rejected with exit 2.
echo "== policy differential gate (insensitive vs summary-1cfa vs summary-2cfa, smoke) =="
POLICIES="insensitive summary-1cfa summary-2cfa"
for pol in $POLICIES; do
    PYTHIA_CTX_POLICY=$pol target/release/reproduce --smoke --bench-json \
        --out "$OUT/pol-$pol" >/dev/null
    PYTHIA_CTX_POLICY=$pol target/release/reproduce --smoke fig7b dist campaign \
        > "$OUT/pol-$pol-attack.txt" 2>/dev/null
    if ! grep -q "\"policy\": \"$pol\"" "$OUT/pol-$pol/BENCH_suite.json"; then
        echo "FAIL: the $pol run does not report policy=$pol:" >&2
        grep '"policy"' "$OUT/pol-$pol/BENCH_suite.json" >&2
        exit 1
    fi
done
for pol in insensitive summary-1cfa; do
    if ! diff -q "$OUT/pol-$pol-attack.txt" "$OUT/pol-summary-2cfa-attack.txt"; then
        echo "FAIL: $pol changed an attack outcome vs summary-2cfa" >&2
        diff -u "$OUT/pol-$pol-attack.txt" "$OUT/pol-summary-2cfa-attack.txt" | head -30 >&2
        exit 1
    fi
done
for pol in summary-1cfa summary-2cfa; do
    PJ="$OUT/pol-$pol/BENCH_suite.json"
    if grep -q '"ctx_fallback": true' "$PJ"; then
        echo "FAIL: budget fallback under the $pol policy run:" >&2
        grep '"ctx_fallback"' "$PJ" >&2
        exit 1
    fi
done
# Per-benchmark monotonicity: rows render in deterministic suite order,
# so a positional pairing of the pruned counters is exact.
pruned_counts() {
    grep -o '"obligations_pruned": [0-9]*' "$OUT/pol-$1/BENCH_suite.json" | grep -o '[0-9]*$'
}
for pair in "insensitive summary-1cfa" "summary-1cfa summary-2cfa"; do
    set -- $pair
    if ! paste <(pruned_counts "$1") <(pruned_counts "$2") \
        | awk '$2 < $1 { bad = 1 } END { exit bad }'; then
        echo "FAIL: $2 pruned fewer obligations than $1 on a smoke benchmark" >&2
        exit 1
    fi
done
removed_status=0
PYTHIA_CTX_POLICY=objsens target/release/reproduce --smoke fig4a >/dev/null 2>&1 || removed_status=$?
if [ "$removed_status" -ne 2 ]; then
    echo "FAIL: the removed policy objsens exited $removed_status, expected 2" >&2
    exit 1
fi
echo "OK: policies agree on every attack outcome; pruning grows along insensitive ≤ summary-1cfa ≤ summary-2cfa; removed names exit 2"

# Ref-tier gate: one fast benchmark at --tier ref. The tier's
# bounded-loop array walks must give the interval analysis something to
# discharge — nonzero proven geps AND pruned obligations on the same
# benchmark — and the JSON must carry its schema version and tier.
echo "== ref-tier single-benchmark gate (lbm) =="
# The trailing `fig4a` section keeps the run suite-only: a bare
# invocation would render the full report's campaign/ablation sections,
# which dwarf the single benchmark this gate actually measures.
target/release/reproduce --only 519.lbm_r --tier ref --bench-json --out "$OUT/ref-gate" fig4a >/dev/null
REFJSON="$OUT/ref-gate/BENCH_suite.json"
require_json "$REFJSON"
if ! grep -q '"tier": "ref"' "$REFJSON"; then
    echo "FAIL: ref-tier run did not report tier=ref" >&2
    exit 1
fi
if ! grep -qE '^  "schema": [0-9]+,$' "$REFJSON"; then
    echo "FAIL: ref-tier BENCH_suite.json carries no schema version" >&2
    exit 1
fi
if ! grep -qE '"proven_geps": [1-9]' "$REFJSON"; then
    echo "FAIL: ref-tier lbm proved no gep bounds — walk generation or interval analysis inert:" >&2
    grep '"proven_geps"' "$REFJSON" >&2
    exit 1
fi
if ! grep -qE '"obligations_pruned": [1-9]' "$REFJSON"; then
    echo "FAIL: ref-tier lbm pruned no obligations despite proven geps:" >&2
    grep '"obligations_pruned"' "$REFJSON" >&2
    exit 1
fi
echo "OK: ref-tier lbm proves gep bounds and prunes obligations"

# Server-scenario gate: a short event-loop run (DESIGN.md §5i) must
# retire requests, must detect at least one *in-window* attack under
# pythia (offset > 0 — the boundary bucket alone would mean the jitter
# model collapsed), must detect every attack under cpa and dfi and none
# under vanilla, and must finish with zero internal errors in every
# scheme's loop. The scenario exit code already reflects internal
# errors; the greps keep the gate honest against exit-code regressions.
# It runs at pool widths 1 and 4: the event loops go through the worker
# pool, and BENCH_server.json must not depend on its width. A third run
# on the legacy engine must give the same bytes as the block engine, and
# all three must equal the committed scripts/golden/BENCH_server-8x4000.json,
# so a change that alters every run the same way fails too. A change that
# alters what a request charges on purpose regenerates the golden file
# and says why.
echo "== server scenario smoke gate (event loop, timed window attacks) =="
for threads in 1 4; do
    PYTHIA_THREADS=$threads target/release/reproduce --scenario server \
        --connections 8 --requests 4000 --out "$OUT/server-t$threads" >/dev/null
done
PYTHIA_THREADS=1 target/release/reproduce --scenario server --engine legacy \
    --connections 8 --requests 4000 --out "$OUT/server-legacy" >/dev/null
if ! cmp "$OUT/server-t1/BENCH_server.json" "$OUT/server-t4/BENCH_server.json"; then
    echo "FAIL: BENCH_server.json differs between PYTHIA_THREADS=1 and 4" >&2
    diff "$OUT/server-t1/BENCH_server.json" "$OUT/server-t4/BENCH_server.json" | head -20 >&2
    exit 1
fi
if ! cmp "$OUT/server-legacy/BENCH_server.json" "$OUT/server-t1/BENCH_server.json"; then
    echo "FAIL: BENCH_server.json differs between the legacy and block engines" >&2
    diff "$OUT/server-legacy/BENCH_server.json" "$OUT/server-t1/BENCH_server.json" | head -20 >&2
    exit 1
fi
SRVJSON="$OUT/server-t1/BENCH_server.json"
if [ ! -f "$SRVJSON" ]; then
    echo "FAIL: server scenario produced no $SRVJSON" >&2
    exit 1
fi
require_json "$SRVJSON"
if ! diff -u scripts/golden/BENCH_server-8x4000.json "$SRVJSON"; then
    echo "FAIL: BENCH_server.json differs from scripts/golden/BENCH_server-8x4000.json" >&2
    exit 1
fi
if grep -qE '"internal_errors": [1-9]' "$SRVJSON"; then
    echo "FAIL: server scenario recorded internal errors:" >&2
    grep '"internal_errors"' "$SRVJSON" >&2
    exit 1
fi
if ! grep -qE '"retired": [1-9]' "$SRVJSON"; then
    echo "FAIL: server scenario retired no requests:" >&2
    grep '"retired"' "$SRVJSON" >&2
    exit 1
fi
pythia_hits=$(awk '/"scheme": "pythia"/{f=1} f && /"in_window_detections"/{gsub(/[^0-9]/,""); print; exit}' "$SRVJSON")
if [ -z "$pythia_hits" ] || [ "$pythia_hits" -eq 0 ]; then
    echo "FAIL: pythia detected no in-window attacks in the server scenario" >&2
    grep '"in_window_detections"' "$SRVJSON" >&2
    exit 1
fi
# CPA and DFI must stop every timed attack at every window offset, and
# vanilla none: a PAC memo that accepted a tampered value, or a broken
# DFI check, shows up here as a rate below 1.000.
rate_failures=$(awk '
    /"scheme": "/ {
        match($0, /"scheme": "[a-z]+"/)
        scheme = substr($0, RSTART + 11, RLENGTH - 12)
    }
    /"offset": / {
        want = scheme == "vanilla" ? "0.000" : (scheme == "cpa" || scheme == "dfi") ? "1.000" : ""
        if (want == "") next
        buckets[scheme]++
        match($0, /"rate": [0-9.]+/)
        rate = substr($0, RSTART + 8, RLENGTH - 8)
        if (rate != want) print scheme " offset bucket has rate " rate ", want " want ": " $0
    }
    END {
        split("vanilla cpa dfi", need, " ")
        for (i = 1; i <= 3; i++) if (!buckets[need[i]]) print need[i] " has no offset buckets"
    }
' "$SRVJSON")
if [ -n "$rate_failures" ]; then
    echo "FAIL: server scenario detection rates:" >&2
    echo "$rate_failures" >&2
    exit 1
fi
echo "OK: server scenario retires requests, pythia detects $pythia_hits in-window attacks, cpa and dfi detect every attack at every offset and vanilla none, zero internal errors, same JSON at 1 and 4 threads, on both engines and as the golden file"

echo "OK: build, clippy, docs, tests, certification, smoke suite, engine differential, campaign fork, profiler, pruning, ref-tier and server-scenario gates are clean ($JSON)"
