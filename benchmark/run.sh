#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments.
# Run from the repository root:
#   bash benchmark/run.sh --workload simulate --seed 1 --seconds 30 --trace 0
# Build output goes to stderr; the last line on stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
export DUNE_CACHE=disabled
dune build --root . --display quiet ./benchmark/main.exe >&2
# malloc keeps freed memory instead of handing it back to the kernel, and
# serves blocks up to 32 MiB (its maximum) from that memory rather than a
# fresh mapping, so a repeated set-up or op reuses pages it has touched
# before: first-touch page faults cost a virtual machine's guest more the
# busier its host is, and they made the paper-grid set-up bimodal (0 or
# about 2600 faults a time).
export GLIBC_TUNABLES=glibc.malloc.trim_threshold=1073741824:glibc.malloc.mmap_threshold=33554432
exec ./_build/default/benchmark/main.exe "$@"
