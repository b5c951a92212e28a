# Convenience wrappers around dune.  `make ci` is the gate a PR must pass:
# no build artifacts snuck into the index, build, full test suite, no
# export without a caller and no stale doc reference, a smoke benchmark
# run that checks every row of the gate table (bench/gates.ml: delivery
# invariance, chaos, copies/byte, gso, mesh control plane, QoS fairness)
# against its own document and the committed BENCH_results.json, the
# host-time engine gate, and the chaos soak.

.PHONY: all build test surface-check bench-smoke bench perf hotspots engine-check soak soak-wide pair-export bench-pair sim-same ci check-tracked-artifacts clean

all: build

check-tracked-artifacts:
	@bad=$$(git ls-files | grep -E '^_build/|\.install$$' || true); \
	if [ -n "$$bad" ]; then \
	  echo "error: build artifacts are tracked by git (use .gitignore):"; \
	  echo "$$bad" | head -20; \
	  exit 1; \
	fi

build:
	dune build

test: build
	dune runtest --force

# Public-surface gate (tools/surface_check.ml): every `val` in lib/*/*.mli
# has a caller outside its own module in lib/, bench/, benchmark/, bin/ or
# examples/, or is a test seam listed in tools/surface_allowlist; and every
# backticked `Module.value` in DESIGN.md, EXPERIMENTS.md and README.md
# resolves.  The self-test first checks that an added unused `val` and a
# stale doc reference in a temporary copy of the tree both fail.
surface-check: build
	dune exec tools/surface_check.exe -- --self-test $(CURDIR)
	dune exec tools/surface_check.exe -- $(CURDIR)

# The smoke plan measured once and every gate row checked; `dune runtest`
# runs the same rule (bench/dune).  The rows' thresholds are listed in
# bench/gates.ml.
bench-smoke: build
	dune exec bench/main.exe -- --json-smoke /tmp/bench_smoke.json $(CURDIR)/BENCH_results.json

bench: build
	dune exec bench/main.exe -- --json

# Full engine microbenchmark sweep (sim_events_per_sec per scenario,
# best-of-three).  Per-layer host costs of the packet path (codec,
# checksum, FIFO, steering, DRR, timer wheel) come from the traced
# benchmark run: `bash benchmark/run.sh --workload bulk --trace 1`.
perf: build
	dune exec bench/main.exe -- --engine-bench

# Host-time profile of one benchmark workload, opt-in and not part of
# `ci`: run W (one workload) at seed 1 for HS_SECONDS host seconds under
# the SIGPROF sampler tools/hotspots/sampler.so (LD_PRELOAD; one sample
# per millisecond of CPU time, or per scheduler tick if that is
# coarser), then print the top symbols by self time and the OCaml
# callers of the write barrier (caml_modify, caml_darken), of
# polymorphic compare and hash, and of caml_applyN (DESIGN.md §10).
# HS_TOP sets how many symbols the flat profile lists.  Samples are kept
# in _build/hotspots/.
#   make hotspots W=rpc
#   make hotspots W=mesh HS_TOP=400
HS_SECONDS ?= 20
HS_TOP ?= 25
hotspots: build
	rm -rf _build/hotspots && mkdir -p _build/hotspots
	HOTSPOTS_OUT=$(CURDIR)/_build/hotspots/$(W) \
	  LD_PRELOAD=$(CURDIR)/_build/default/tools/hotspots/sampler.so \
	  ./_build/default/benchmark/run.exe --workload $(W) --seed 1 \
	  --seconds $(HS_SECONDS) --trace 0 > /dev/null
	./_build/default/tools/hotspots/symbolize.exe --top $(HS_TOP) \
	  _build/default/benchmark/run.exe _build/hotspots/$(W).*

# Regression gate: re-measure the headline engine scenario in smoke mode
# and fail loudly if it lost more than 25% against the committed
# BENCH_results.json.
engine-check: build
	dune exec bench/main.exe -- --engine-bench-check BENCH_results.json

# Chaos soak: the full fault matrix (every scenario x every applicable
# fault kind, alone and as a storm), deterministic per seed.  Set
# SOAK_ITERS=n for a longer sweep over seeds 42..42+n-1; a red run prints
# the first failing seed and its replay command.
soak: build
	dune exec xenloopsim -- chaos

# Wide chaos soak, opt-in and not part of `ci`: 40 iterations of the
# full fault matrix at base seeds 0 and 100.  Both sweeps run; the target
# exits nonzero if either fails.  Every seed that ever failed here is
# pinned as a named replay in test/test_chaos.ml (chaos.replay).
soak-wide: build
	@status=0; \
	for seed in 0 100; do \
	  dune exec xenloopsim -- chaos --iters 40 --seed $$seed || status=1; \
	done; \
	exit $$status

# Paired benchmark comparison, opt-in and not part of `ci`: export
# PARENT (default HEAD^, the commit before the current one; PARENT=HEAD
# compares uncommitted changes) into _build/pair/, then run each
# workload listed in W N times in each tree, alternating which tree goes
# first, with seed 1000+i for pair i and the benchmark's own run length
# (benchmark/README.md, "Comparing two commits").  Runs append to
# _build/pair/parent.jsonl and _build/pair/child.jsonl; `run.exe
# --compare` judges every workload in them at the end.  Each run takes
# about half a minute, so N=10 takes about ten minutes per workload.
#   make bench-pair W=bulk N=10
#   make bench-pair W="bulk mixed rpc netfront mesh" N=10
W ?= bulk
N ?= 10
PARENT ?= HEAD^
pair-export:
	rm -rf _build/pair && mkdir -p _build/pair
	git archive $(PARENT) | tar -x -C _build/pair

bench-pair: pair-export
	@set -e; \
	run() { \
	  (cd $$1 && bash benchmark/run.sh --workload $$2 --seed $$3 \
	     --json $(CURDIR)/_build/pair/$$4.jsonl > /dev/null); \
	}; \
	for i in $$(seq 1 $(N)); do \
	  seed=$$((1000 + i)); \
	  for w in $(W); do \
	    echo "pair $$i/$(N): $$w seed $$seed"; \
	    if [ $$((i % 2)) = 1 ]; then \
	      run _build/pair $$w $$seed parent; run . $$w $$seed child; \
	    else \
	      run . $$w $$seed child; run _build/pair $$w $$seed parent; \
	    fi; \
	  done; \
	done
	./_build/default/benchmark/run.exe --compare _build/pair/parent.jsonl _build/pair/child.jsonl

# Simulated-values identity against PARENT, opt-in and not part of `ci`:
# export PARENT as bench-pair does, run every workload at seeds 1-3 for
# one host second each in both trees, and fail unless every sim_* value
# of every run is exactly equal (tools/sim_same.ml).  Host-clock metrics
# are not compared.  About two minutes.
#   make sim-same PARENT=HEAD^
sim-same: pair-export
	@set -e; \
	for seed in 1 2 3; do \
	  echo "sim-same: seed $$seed, parent then child"; \
	  (cd _build/pair && bash benchmark/run.sh --seed $$seed --seconds 1 \
	     --json $(CURDIR)/_build/pair/parent.jsonl > /dev/null); \
	  bash benchmark/run.sh --seed $$seed --seconds 1 \
	    --json $(CURDIR)/_build/pair/child.jsonl > /dev/null; \
	done
	dune exec tools/sim_same.exe -- _build/pair/parent.jsonl _build/pair/child.jsonl

ci: check-tracked-artifacts build test surface-check bench-smoke engine-check soak
	@echo "ci: artifact check + build + tests + surface check + bench smoke (gate table: delivery, chaos, copies/byte, gso, mesh, fairness) + engine perf gate + chaos soak all green"

clean:
	dune clean
