#!/usr/bin/env bash
# Opt-in deep checking for the concurrency- and allocation-sensitive tests:
#
#   scripts/sanitize.sh miri    # Miri interprets the pool/zero-alloc tests
#   scripts/sanitize.sh tsan    # ThreadSanitizer over the same tests
#   scripts/sanitize.sh asan    # AddressSanitizer over the same tests
#   scripts/sanitize.sh         # all of the above, in that order
#
# Every mode needs a nightly toolchain (Miri additionally needs the miri
# component; the sanitizers need rust-src for -Zbuild-std). None of that is
# guaranteed in the offline container, so ABSENCE IS NOT FAILURE: each mode
# prints why it is skipped and the script exits 0. scripts/check.sh's
# always-on checks (clippy's documented-`unsafe` lints, the `debug-stats`
# zero-alloc tests, the ack-ladder tests) remain the line of defense; this
# script runs the same tests under Miri and the sanitizers on machines that
# have the tooling.
set -euo pipefail
cd "$(dirname "$0")/.."

# The tests worth the (large) sanitizer slowdown: the sharded pool's
# equivalence-vs-sequential property, the steady-state allocation gauge
# (needs debug-stats for the counting global allocator), the cluster
# partition-map unit tests, and the replication apply-path unit tests
# (`replica_append` ordering, fencing, LSN gaps; `crates/net/tests/
# ack_ladder.rs` pins the same ladder end to end). Each entry is a full
# flag group including its package.
TARGETS=(
  "-p adcast-core --test pool_equivalence"
  "-p adcast-core --features debug-stats --test zero_alloc"
  "-p adcast-cluster --lib"
  "-p adcast-net --lib replication"
)

target_list() {
  printf '%s\n' "${TARGETS[@]}" | sed 's/.*-p \([a-z-]*\).*/\1/' \
    | sort -u | paste -sd, -
}

have_nightly() {
  command -v rustup >/dev/null 2>&1 || return 1
  rustup toolchain list 2>/dev/null | grep -q nightly
}

run_miri() {
  if ! have_nightly; then
    echo "miri: skipped (no rustup nightly toolchain in this environment)"
    return 0
  fi
  if ! rustup component list --toolchain nightly 2>/dev/null \
      | grep -q 'miri.*(installed)'; then
    echo "miri: skipped (nightly is present but the miri component is not)"
    return 0
  fi
  echo "== miri: $(target_list) =="
  # The replication tests write WAL files to a temp dir and spawn shard
  # workers; Miri needs host file-system access for that.
  export MIRIFLAGS="${MIRIFLAGS:--Zmiri-disable-isolation}"
  for t in "${TARGETS[@]}"; do
    # shellcheck disable=SC2086  # $t is a flag group, word-splitting intended
    cargo +nightly miri test $t
  done
}

run_sanitizer() {
  local san="$1" flag="$2"
  if ! have_nightly; then
    echo "$san: skipped (no rustup nightly toolchain in this environment)"
    return 0
  fi
  if ! rustup component list --toolchain nightly 2>/dev/null \
      | grep -q 'rust-src.*(installed)'; then
    echo "$san: skipped (nightly lacks rust-src; -Zbuild-std needs it)"
    return 0
  fi
  local target
  target=$(rustc -vV | awk '/^host:/{print $2}')
  echo "== $san: $(target_list) =="
  for t in "${TARGETS[@]}"; do
    # shellcheck disable=SC2086  # $t is a flag group, word-splitting intended
    RUSTFLAGS="-Zsanitizer=$flag" cargo +nightly test -Zbuild-std \
      --target "$target" $t
  done
}

mode="${1:-all}"
case "$mode" in
  miri) run_miri ;;
  tsan) run_sanitizer tsan thread ;;
  asan) run_sanitizer asan address ;;
  all)
    run_miri
    run_sanitizer tsan thread
    run_sanitizer asan address
    ;;
  *)
    echo "usage: scripts/sanitize.sh [miri|tsan|asan|all]" >&2
    exit 2
    ;;
esac
echo "sanitize: done (modes that lacked tooling were skipped, not failed)"
