# Convenience wrapper around dune; `make check` is the PR gate CI runs.

.PHONY: all build test check bench bench-json bench-pair coverage trace profile-domains fabric tune clean

all: build

build:
	dune build

test:
	dune runtest

check: build test

bench:
	dune exec bench/main.exe -- tables

bench-json:
	dune exec bench/main.exe -- --json

# the paired protocol of benchmark/README.md against revision PARENT:
# seeds 1-10, each running every workload for 30 s on both trees, the
# side that runs first alternating by seed, then `compare` (exits 1 on a
# worse end-to-end metric).  PARENT's tree is exported with git archive
# (no worktree to prune afterwards) into the git-ignored _bench_pair/,
# which also receives the results; malloc is tuned as benchmark/run.sh
# tunes it.  About 45 minutes on a 2-core host.
bench-pair:
	@test -n "$(PARENT)" || { echo "usage: make bench-pair PARENT=<rev>" >&2; exit 2; }
	rm -rf _bench_pair && mkdir -p _bench_pair/parent
	git archive "$(PARENT)" | tar -x -C _bench_pair/parent
	cd _bench_pair/parent && DUNE_CACHE=disabled dune build --root . ./benchmark/main.exe
	DUNE_CACHE=disabled dune build ./benchmark/main.exe
	export GLIBC_TUNABLES=glibc.malloc.trim_threshold=1073741824:glibc.malloc.mmap_threshold=33554432; \
	for s in 1 2 3 4 5 6 7 8 9 10; do \
	  if [ $$((s % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi; \
	  for side in $$order; do \
	    if [ $$side = parent ]; then tree=_bench_pair/parent; else tree=.; fi; \
	    (cd $$tree && ./_build/default/benchmark/main.exe all --seed $$s \
	      --seconds 30 --out $(CURDIR)/_bench_pair/$$side.json) || exit 1; \
	  done; \
	done
	./_build/default/benchmark/main.exe compare _bench_pair/parent.json \
	  _bench_pair/change.json

# before/after loop-fission fused-kernel coverage of the bundled apps,
# then the regression gate against the committed COVERAGE.json manifest
coverage:
	dune exec bench/main.exe -- coverage

# profile the bundled example on 4 simulated ranks; load trace.json in
# https://ui.perfetto.dev or chrome://tracing
trace:
	dune exec bin/autocfd_cli.exe -- trace examples/heat2d.f --parts 2x2 \
	  --out trace.json --metrics metrics.json

# kernel-level profile of the real shared-memory Domains execution (one
# OCaml 5 domain per rank), with the >= 95% attribution gate armed
profile-domains:
	dune exec bin/autocfd_cli.exe -- profile examples/heat2d.f --parts 2x2 \
	  --engine domains --check

# the distributed-sweep chaos gate: master + 3 socket worker processes,
# one SIGKILLed mid-sweep; tables must stay byte-identical with >= 1
# requeue, and a worker-less master must degrade rather than hang
fabric:
	dune exec bench/main.exe -- fabric --check

# the auto-tuning gate: three byte-identical passes over the tune
# tables (serial/no-cache, parallel cold, parallel warm with 100%
# hits), winner must beat every hand-picked paper config, frontier
# must be Pareto-minimal
tune:
	dune exec bench/main.exe -- tune --check

clean:
	dune clean
