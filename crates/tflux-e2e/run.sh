#!/usr/bin/env bash
# Build bench_e2e without touching the network, then run it with the
# arguments given (see README.md; no arguments = every workload).
#
#   bash crates/tflux-e2e/run.sh --workload soft_fine --seed 1 --seconds 10 --trace 0
#   bash crates/tflux-e2e/run.sh compare parent.jsonl change.jsonl
#
# Dependencies: when cargo can resolve the workspace from what is already
# on disk (`cargo metadata --offline`), the build is plain
# `cargo build --release`; otherwise, when vendor/offline.toml exists, it
# goes through scripts/offline-check.sh and the vendor/stub crates. Both
# pass --offline, so nothing here ever contacts a registry. The mode is
# recorded in the output header as `deps`.

set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/../.."
# belt and braces: no cargo started from here may use the network
export CARGO_NET_OFFLINE=true

if [ ! -f Cargo.toml ]; then
  echo "bench_e2e: $(pwd) is not a checkout of the tflux workspace" >&2
  exit 2
fi

if cargo metadata --offline --format-version 1 >/dev/null 2>&1; then
  deps=registry
  target="${CARGO_TARGET_DIR:-target}"
  cargo build --offline --release -p tflux-e2e >&2
elif [ -f vendor/offline.toml ]; then
  deps=stub
  target="${CARGO_TARGET_DIR:-target/offline-stub}"
  bash scripts/offline-check.sh build --release -p tflux-e2e >&2
else
  echo "bench_e2e: dependencies are not on disk and there is no vendor/offline.toml" >&2
  exit 2
fi

export TFLUX_E2E_DEPS="$deps"
TFLUX_E2E_RUSTC="$(rustc -V)"
TFLUX_E2E_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export TFLUX_E2E_RUSTC TFLUX_E2E_COMMIT

exec "$target/release/bench_e2e" "$@"
