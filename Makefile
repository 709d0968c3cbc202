# Convenience wrapper around dune; `make check` is the PR gate CI runs.

.PHONY: all build test check bench bench-json bench-pair bench-layers coverage trace profile-domains fabric tune loc clean

all: build

build:
	dune build

test:
	dune runtest

check: build test

bench:
	dune exec bin/autocfd_cli.exe -- tables

bench-json:
	dune exec bin/autocfd_cli.exe -- tables --json > BENCH_tables.json

# export revision PARENT and the change into $(1)/parent and $(1)/change
# and build the benchmark in each, so both sides build and run the same
# way from sibling directories (the sweep workload keeps its cache and
# fabric socket under the working directory).  The change is the working
# tree as `git stash create` records it, or HEAD when the tree is clean:
# new files must be `git add`ed first.  git archive leaves no worktree
# to prune afterwards.  Only the two trees are replaced: results kept
# beside them survive a later export.
define export_sides
	rm -rf $(1)/parent $(1)/change && mkdir -p $(1)/parent $(1)/change
	git archive "$(PARENT)" | tar -x -C $(1)/parent
	rev=$$(git stash create) && git archive "$${rev:-HEAD}" | tar -x -C $(1)/change
	for side in parent change; do \
	  (cd $(1)/$$side && DUNE_CACHE=disabled dune build --root . ./benchmark/main.exe) || exit 1; \
	done
endef

# the paired protocol of benchmark/README.md against revision PARENT:
# seeds 1-10, each running every workload for 30 s on both trees, the
# side that runs first alternating by seed, then `compare` (exits 1 on a
# worse end-to-end metric).  Both trees are exported into the
# git-ignored _bench_pair/, which also receives the results; malloc is
# tuned as benchmark/run.sh tunes it.  About 45 minutes on a 2-core host.
bench-pair:
	@test -n "$(PARENT)" || { echo "usage: make bench-pair PARENT=<rev>" >&2; exit 2; }
	$(call export_sides,_bench_pair)
	rm -f _bench_pair/parent.json _bench_pair/change.json
	export GLIBC_TUNABLES=glibc.malloc.trim_threshold=1073741824:glibc.malloc.mmap_threshold=33554432; \
	for s in 1 2 3 4 5 6 7 8 9 10; do \
	  if [ $$((s % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi; \
	  for side in $$order; do \
	    (cd _bench_pair/$$side && ./_build/default/benchmark/main.exe all --seed $$s \
	      --seconds 30 --out $(CURDIR)/_bench_pair/$$side.json) || exit 1; \
	  done; \
	done
	_bench_pair/change/_build/default/benchmark/main.exe compare \
	  _bench_pair/parent.json _bench_pair/change.json

# per-layer numbers of each workload in WORKLOAD (one name, or several
# in quotes) against revision PARENT: traced runs (--trace 1, 20 s) of
# seeds 1-4 on both trees, the side that runs first alternating by seed,
# then one line per per-layer metric with the median on each side and
# their ratio.  A time is divided by its run's bench.ref_ms (the
# reference kernel timed in the same run) before the median is taken;
# counts, bytes and ratios are shown as they are.  Both trees are
# exported as bench-pair exports them, into the git-ignored
# _bench_layers/; each workload's runs and medians go to
# _bench_layers/<workload>/, which a later run of that workload
# replaces and a run of another workload leaves alone.  About 4 minutes
# per workload on a 2-core host.
bench-layers:
	@test -n "$(PARENT)" -a -n "$(WORKLOAD)" || { \
	  echo "usage: make bench-layers PARENT=<rev> WORKLOAD=\"<name> ...\"" >&2; exit 2; }
	$(call export_sides,_bench_layers)
	export GLIBC_TUNABLES=glibc.malloc.trim_threshold=1073741824:glibc.malloc.mmap_threshold=33554432; \
	for w in $(WORKLOAD); do \
	  rm -rf _bench_layers/$$w && mkdir -p _bench_layers/$$w || exit 1; \
	  for s in 1 2 3 4; do \
	    if [ $$((s % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi; \
	    for side in $$order; do \
	      (cd _bench_layers/$$side && ./_build/default/benchmark/main.exe --workload $$w \
	        --seed $$s --seconds 20 --trace 1) > _bench_layers/$$w/$$side.$$s.txt || exit 1; \
	    done; \
	  done; \
	done
	@for w in $(WORKLOAD); do \
	  for side in parent change; do \
	    for f in _bench_layers/$$w/$$side.[1-4].txt; do \
	      awk 'NF == 3 && $$1 !~ /^[{]/ { v[$$1] = $$2; u[$$1] = $$3 } \
	        $$1 == "bench.ref_ms" { ref = $$2 } \
	        END { for (k in v) print k, (u[k] == "ms" ? v[k] / ref : \
	          u[k] == "s" ? 1000 * v[k] / ref : v[k]) }' $$f; \
	    done | sort -k1,1 -k2,2g | awk ' \
	      function flush() { if (n) print key, (n % 2 ? x[(n + 1) / 2] : (x[n / 2] + x[n / 2 + 1]) / 2) } \
	      $$1 != key { flush(); key = $$1; n = 0 } { x[++n] = $$2 } END { flush() }' \
	      > _bench_layers/$$w/$$side.medians; \
	  done; \
	  printf '%-36s %14s %14s %9s\n' "$$w (times / bench.ref_ms)" parent change ratio; \
	  awk 'NR == FNR { p[$$1] = $$2; next } ($$1 in p) && (p[$$1] != 0 || $$2 != 0) { \
	      printf "%-36s %14.6g %14.6g %9s\n", $$1, p[$$1], $$2, \
	        (p[$$1] != 0 ? sprintf("%.3f", $$2 / p[$$1]) : "-") }' \
	    _bench_layers/$$w/parent.medians _bench_layers/$$w/change.medians; \
	done

# before/after loop-fission fused-kernel coverage of the bundled apps
# (pinned by test/golden/coverage.t and test_engine under `dune runtest`)
coverage:
	dune exec bin/autocfd_cli.exe -- coverage

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
	dune exec bin/autocfd_cli.exe -- fabric --check

# the auto-tuning gate: three byte-identical passes over the tune
# tables (serial/no-cache, parallel cold, parallel warm with 100%
# hits), winner must beat every hand-picked paper config, frontier
# must be Pareto-minimal
tune:
	dune exec bin/autocfd_cli.exe -- tune --check

# the line counts every PR reports: lib/**/*.ml{,i}, bin/*.ml and
# test/**/*.ml, one wc -l total each, and lib's total by library
# directory
loc:
	@printf 'lib  %7d\n' "$$(find lib -name '*.ml' -o -name '*.mli' | xargs cat | wc -l)"
	@for d in lib/*/; do \
	  printf '  %-14s %7d\n' "$${d%/}" "$$(find $$d -name '*.ml' -o -name '*.mli' | xargs cat | wc -l)"; \
	done
	@printf 'bin  %7d\n' "$$(cat bin/*.ml | wc -l)"
	@printf 'test %7d\n' "$$(find test -name '*.ml' | xargs cat | wc -l)"

clean:
	dune clean
