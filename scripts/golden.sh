#!/usr/bin/env bash
# The golden gate: each artifact under tests/golden/ must be reproduced byte
# for byte by `dtr_tool campaign` from the spec next to it, under every
# execution shape listed in other_shapes below, and the run's work must match
# its ledger <spec>.work.json counter for counter (README: "Golden artifacts").
#
# Usage: scripts/golden.sh regen|check [--build DIR] [SPEC...]
#   regen  rewrite the artifacts with the regeneration shape and the work
#          ledgers with the ledger shape. Only after an INTENTIONAL metric or
#          work change; commit the new bytes with that change.
#   check  rerun both regen invocations into a temp dir (so a drifted spec
#          path or flag fails here), then every other shape; diff each
#          artifact and the ledger against the checked-in files; exit 1 on a
#          diff in either direction.
#   DIR    CMake build directory (default build); dtr_tool is built there.
#   SPEC   campaign_smoke scenario_smoke availability_smoke events_smoke
#          isp_smoke (default: all five).
#
# events_smoke keeps only the deterministic plane ("plane":"det" lines);
# process-plane lines carry wall times. If a regeneration flips
# availability_smoke's headline (the SRLG-hardened cell's expected downtime
# below the single-link-hardened cell's, asserted in CI), the change broke
# the catalog objective. The artifacts are expected to be byte-identical
# across x86-64 Linux toolchains (IEEE-754 +-*/ only, no FMA contraction,
# shortest-round-trip JSON doubles, and no summation order left to the
# standard library: the load sweep's visit order is a defined total order,
# not std::sort's tie order); if one ever breaks that, regenerate on
# ubuntu-latest, gcc, Release.

set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-}"
[[ "$MODE" == regen || "$MODE" == check ]] || {
  sed -n '7,17p' "$0" >&2
  exit 2
}
shift
BUILD_DIR="build"
SPECS=()
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build) BUILD_DIR="$2"; shift 2 ;;
    *) SPECS+=("$1"); shift ;;
  esac
done
[[ ${#SPECS[@]} -gt 0 ]] ||
  SPECS=(campaign_smoke scenario_smoke availability_smoke events_smoke isp_smoke)

REGEN_SHAPE="--workers 2"
# The ledger shape runs on one thread end to end: the only shape where the
# base-cache counters (which depend on LRU order) are deterministic too.
LEDGER_SHAPE="--workers 1"

# The shapes besides REGEN_SHAPE and LEDGER_SHAPE that each artifact must
# reproduce under. The ISP oracle run keeps the inner pool: a full recompute
# is ~13x slower per scenario at that size.
other_shapes() {
  case "$1" in
    events_smoke) echo "--workers 1 --inner-threads 4" ;;
    isp_smoke) printf '%s\n' "--workers 1 --inner-threads 4" \
                              "--workers 1 --inner-threads 4 --no-incremental" ;;
    *) printf '%s\n' "--workers 1 --inner-threads 4" "--workers 2 --no-incremental" ;;
  esac
}

artifact() {
  if [[ "$1" == events_smoke ]]; then echo "$1.jsonl"; else echo "$1.json"; fi
}

cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target dtr_tool >/dev/null
TOOL="$BUILD_DIR/examples/dtr_tool"
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

# ledger TELEMETRY TRACE — prints the work ledger of a run's telemetry
# export: the deterministic counters and histograms plus the process-plane
# counters, one entry per line so a diff names what moved. Gauges
# (optimizer.live.* is last-write-wins) and spans (wall time) stay out. Fails
# when the run's Chrome trace holds no span.
ledger() {
  python3 - "$1" "$2" <<'EOF'
import json, sys
telemetry = json.load(open(sys.argv[1]))
if not json.load(open(sys.argv[2]))["traceEvents"]:
    sys.exit(f"{sys.argv[2]}: the campaign's Chrome trace holds no span")
sections = [("counters", telemetry["counters"]),
            ("histograms", telemetry["histograms"]),
            ("process.counters", telemetry["process"]["counters"])]
print("{")
for i, (name, entries) in enumerate(sections):
    lines = [f"  {json.dumps(k)}: {json.dumps(v, separators=(',', ':'))}"
             for k, v in entries.items()]
    print(f'"{name}": {{')
    print(",\n".join(lines))
    print("}" + ("," if i + 1 < len(sections) else ""))
print("}")
EOF
}

# run SPEC SHAPE OUT [WORK] — writes SPEC's golden artifact under SHAPE to
# OUT and, given WORK, the run's work ledger to WORK.
run() {
  local spec="$1" shape="$2" out="$3" work="${4:-}"
  local exports=()
  [[ -z "$work" ]] ||
    exports=(--telemetry-json "$SCRATCH/telemetry.json" --trace-out "$SCRATCH/trace.json")
  echo "== $spec: $shape${work:+ (work ledger)}"
  if [[ "$spec" == events_smoke ]]; then
    # shellcheck disable=SC2086
    "$TOOL" campaign --spec "tests/golden/$spec.spec" --json /dev/null $shape \
      "${exports[@]}" --events-out "$SCRATCH/events.jsonl"
    grep '"plane":"det"' "$SCRATCH/events.jsonl" >"$out"
  else
    # shellcheck disable=SC2086
    "$TOOL" campaign --spec "tests/golden/$spec.spec" --json "$out" $shape "${exports[@]}"
  fi
  [[ -z "$work" ]] || ledger "$SCRATCH/telemetry.json" "$SCRATCH/trace.json" >"$work"
}

# differs WANT GOT SPEC SHAPE — diffs GOT against the checked-in WANT.
differs() {
  diff -u "$1" "$2" && return 1
  echo "::error::$1 diverges under '$4'."
  echo "If the change is intentional, run scripts/golden.sh regen $3 and commit."
}

if [[ "$MODE" == regen ]]; then
  for spec in "${SPECS[@]}"; do
    run "$spec" "$REGEN_SHAPE" "tests/golden/$(artifact "$spec")"
    run "$spec" "$LEDGER_SHAPE" "$SCRATCH/$(artifact "$spec")" "tests/golden/$spec.work.json"
  done
  git --no-pager diff --stat -- tests/golden/
  exit 0
fi

status=0
for spec in "${SPECS[@]}"; do
  want="tests/golden/$(artifact "$spec")"
  got="$SCRATCH/$(artifact "$spec")"
  while read -r shape; do
    if [[ "$shape" == "$LEDGER_SHAPE" ]]; then
      run "$spec" "$shape" "$got" "$SCRATCH/work.json"
      differs "tests/golden/$spec.work.json" "$SCRATCH/work.json" "$spec" "$shape" && status=1
    else
      run "$spec" "$shape" "$got"
    fi
    differs "$want" "$got" "$spec" "$shape" && status=1
  done < <(echo "$REGEN_SHAPE"; echo "$LEDGER_SHAPE"; other_shapes "$spec")
done
exit "$status"
