# Convenience wrappers around dune.  `make ci` is the gate a PR must pass:
# no build artifacts snuck into the index, build, full test suite, no
# export without a caller and no stale doc reference, a smoke benchmark
# run whose JSON writer exits nonzero if the optimized data path loses or
# duplicates a single application byte relative to the baseline (see
# bench/main.ml), the perf and behaviour gates below, and the chaos soak.

.PHONY: all build test surface-check bench-smoke bench perf engine-check datapath-check gso-check mesh-check fairness-check soak soak-wide ci check-tracked-artifacts clean

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

bench-smoke: build
	dune exec bench/main.exe -- --json-smoke /tmp/bench_smoke.json

bench: build
	dune exec bench/main.exe -- --json

# Full engine microbenchmark sweep (sim_events_per_sec per scenario,
# best-of-three).  Per-layer host costs of the packet path (codec,
# checksum, FIFO, steering, DRR, timer wheel) come from the traced
# benchmark run: `bash benchmark/run.sh --workload bulk --trace 1`.
perf: build
	dune exec bench/main.exe -- --engine-bench

# Regression gate: re-measure the headline engine scenario in smoke mode
# and fail loudly if it lost more than 25% against the committed
# BENCH_results.json.
engine-check: build
	dune exec bench/main.exe -- --engine-bench-check BENCH_results.json

# Data-path gate: with loaned-slot receive on (the default), a 16 KiB TCP
# stream must cross the channel at <= 0.1 memcpy'd bytes per delivered
# byte; more means the zero-copy borrow silently degenerated to copy-out.
datapath-check: build
	dune exec bench/main.exe -- --datapath-check

# Segmentation-offload gate: a 64 KiB gso-on TCP stream must beat the
# gso-off path by >= 20% with the channel descriptor rate down >= 10x,
# deliver byte-for-byte the same application data, and leave the gso-off
# chaos digest matrix bit-for-bit unperturbed whether or not the
# Jumbo_truncate fault is armed.
gso-check: build
	dune exec bench/main.exe -- --gso-check

# Control-plane gate: re-measure the N=128 mesh point with delta
# announcements on and fail if steady-state announce bytes/guest blow the
# hard budget, if channel bring-up lost more than 25% against the
# committed BENCH_results.json, or if the live channel population exceeds
# the per-guest cap.
mesh-check: build
	dune exec bench/main.exe -- --mesh-check BENCH_results.json

# QoS fairness gate: re-measure the incast and elephant-vs-mice sweeps in
# smoke mode and fail if the per-flow scheduler stops enforcing fairness —
# qos-on incast Jain index < 0.95, or the elephant-vs-mice victim's rr p99
# under qos-on regresses to within 5x of the qos-off pile-up.
fairness-check: build
	dune exec bench/main.exe -- --fairness-check

# Chaos soak: the full fault matrix (every scenario x every applicable
# fault kind, alone and as a storm), deterministic per seed.  Set
# SOAK_ITERS=n for a longer sweep over seeds 42..42+n-1; a red run prints
# the first failing seed and its replay command.
soak: build
	dune exec xenloopsim -- chaos

# Wide chaos soak, opt-in and not part of `ci`: 40 iterations of the
# full fault matrix at base seeds 0 and 100.  Both sweeps run; the target
# exits nonzero if either fails.  It currently reports the known
# exactly-once loss on cluster3/evict-teardown (one datagram of 250 lost
# per failing run): seeds 3 and 25 in the base-0 sweep and seed 129 in the
# base-100 sweep, each with its replay line, e.g.
# `xenloopsim chaos --case cluster3/evict-teardown --seed 129`.
soak-wide: build
	@status=0; \
	for seed in 0 100; do \
	  dune exec xenloopsim -- chaos --iters 40 --seed $$seed || status=1; \
	done; \
	exit $$status

ci: check-tracked-artifacts build test surface-check bench-smoke engine-check datapath-check gso-check mesh-check fairness-check soak
	@echo "ci: artifact check + build + tests + surface check + bench smoke (delivery check) + engine perf gate + data-path copy gate + gso offload gate + mesh control-plane gate + QoS fairness gate + chaos soak all green"

clean:
	dune clean
