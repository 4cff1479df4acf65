#!/usr/bin/env bash
# The golden-artifact gate: each artifact under tests/golden/ must be
# reproduced byte for byte by `dtr_tool campaign` from the spec next to it,
# under every execution shape listed in other_shapes below (README: "Golden
# artifacts").
#
# Usage: scripts/golden.sh regen|check [--build DIR] [SPEC...]
#   regen  rewrite the artifacts with the regeneration shape. Only after an
#          INTENTIONAL metric change; commit the new bytes with that change.
#   check  rerun the exact regen invocation into a temp dir (so a drifted
#          spec path or flag fails here), then every other shape, and diff
#          each result against the checked-in artifact; exit 1 on a diff.
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
# shortest-round-trip JSON doubles); if one ever breaks that, regenerate on
# ubuntu-latest, gcc, Release.

set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-}"
[[ "$MODE" == regen || "$MODE" == check ]] || {
  sed -n '7,15p' "$0" >&2
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

# The shapes besides REGEN_SHAPE that each artifact must reproduce under.
# The ISP oracle run keeps the inner pool: a full recompute is ~13x slower
# per scenario at that size.
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

# run SPEC SHAPE OUT — writes SPEC's golden artifact under SHAPE to OUT.
run() {
  local spec="$1" shape="$2" out="$3"
  echo "== $spec: $shape"
  if [[ "$spec" == events_smoke ]]; then
    # shellcheck disable=SC2086
    "$TOOL" campaign --spec "tests/golden/$spec.spec" --json /dev/null $shape \
      --events-out "$SCRATCH/events.jsonl"
    grep '"plane":"det"' "$SCRATCH/events.jsonl" >"$out"
  else
    # shellcheck disable=SC2086
    "$TOOL" campaign --spec "tests/golden/$spec.spec" --json "$out" $shape
  fi
}

if [[ "$MODE" == regen ]]; then
  for spec in "${SPECS[@]}"; do run "$spec" "$REGEN_SHAPE" "tests/golden/$(artifact "$spec")"; done
  git --no-pager diff --stat -- tests/golden/
  exit 0
fi

status=0
for spec in "${SPECS[@]}"; do
  want="tests/golden/$(artifact "$spec")"
  while read -r shape; do
    got="$SCRATCH/$(artifact "$spec")"
    run "$spec" "$shape" "$got"
    if ! diff -u "$want" "$got"; then
      echo "::error::$want diverges under '$shape'."
      echo "If the change is intentional, run scripts/golden.sh regen $spec and commit."
      status=1
    fi
  done < <(echo "$REGEN_SHAPE"; other_shapes "$spec")
done
exit "$status"
