#!/usr/bin/env bash
# Builds the benchmark (perfbench and the dpss-serve daemon it drives)
# and runs it with the given arguments. From the repository root:
#
#   bash perfbench/run.sh --workload fleet-512-month --seed 42 --seconds 20 --trace 0
#
# Honours CARGO_TARGET_DIR (relative paths are taken from the current
# directory, as cargo takes them).
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml" >&2
bin="${CARGO_TARGET_DIR:-$here/target}/release/perfbench"
# Run on one CPU, the last this process may use; the serve daemon
# inherits it. The serve client and daemon answer each other one
# request at a time: left to the scheduler on a two-CPU host they hop
# between CPUs and the run measures cross-CPU wake-ups. Where taskset
# is missing or refuses, the benchmark runs unpinned.
cpu="$(taskset -pc $$ 2>/dev/null | sed 's/.*: *//; s/.*[-,]//')" || cpu=""
if [ -n "$cpu" ] && taskset -c "$cpu" true 2>/dev/null; then
    exec taskset -c "$cpu" "$bin" "$@"
fi
exec "$bin" "$@"
