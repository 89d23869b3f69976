# Local entrypoints mirroring .github/workflows/ci.yml — keep the two in
# sync so "it passes locally" means "it passes in CI".

.PHONY: build test lint fmt doc bench bench-smoke bench-build bench-json bench-scale perf-guard scale-guard scenarios serve-smoke serve-crash serve-replica repro all

all: build test lint doc bench-build

build:
	cargo build --release

test:
	cargo test -q

fmt:
	cargo fmt --check

lint: fmt
	cargo clippy --workspace --all-targets -- -D warnings

# What the CI `docs` job runs: rustdoc with warnings denied (broken links,
# missing code-block languages, private intra-doc links all fail).
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

# Full criterion measurements (slow).
bench:
	cargo bench -p iuad-bench

# What the scheduled CI job runs: compile benches, one quick pass, no stats.
bench-smoke:
	cargo bench -p iuad-bench -- --test

# What the CI `bench-build` job runs: compile the repository benchmark
# (its own workspace under benchmark/), so a core API change that breaks
# it fails CI.
bench-build:
	cargo build --release --offline --manifest-path benchmark/Cargo.toml

# Regenerate the committed single-threaded perf baseline
# (BENCH_pipeline.json; schema in README § Performance).
bench-json:
	IUAD_BENCH_THREADS=1 cargo run --release -p iuad-bench --bin repro -- perf

# What the CI perf-guard step runs: stash the committed baseline, re-measure,
# fail on a >25% regression of total_seconds, pairs_per_sec, or any stage row
# worth at least 5% of the baseline total.
perf-guard:
	cp BENCH_pipeline.json /tmp/BENCH_baseline.json
	$(MAKE) bench-json
	python3 scripts/perf_guard.py /tmp/BENCH_baseline.json BENCH_pipeline.json

# Regenerate the committed scale-tier baseline (BENCH_scale.json; schema in
# README § Performance): 100k generated papers through the shipped Iuad::fit,
# with the stage rows it records itself. The 1M tier is nightly CI (and
# manual): IUAD_SCALE_1M=1 make bench-scale.
# Every tier is held to a hard memory ceiling — profile-context heap at most
# 1.25x the committed baseline's bytes/mention — and the run exits 1 past it.
bench-scale:
	IUAD_BENCH_THREADS=1 cargo run --release -p iuad-bench --bin repro -- scale

# What the CI bench-scale step runs: stash the committed scale baseline,
# re-measure the 100k tier, fail on a >25% regression.
scale-guard:
	cp BENCH_scale.json /tmp/BENCH_scale_baseline.json
	$(MAKE) bench-scale
	python3 scripts/perf_guard.py /tmp/BENCH_scale_baseline.json BENCH_scale.json

# What the CI `scenarios` job runs: the conformance suite in release mode,
# then regenerate the committed SCENARIOS.json scorecard (schema in
# README § Testing & scenarios).
scenarios:
	cargo test --release -q --test scenarios
	cargo run --release -p iuad-bench --bin repro -- scenarios

# What the CI `serve-smoke` job runs: the end-to-end serving gate — live
# daemon on a seeded corpus, ≥50 streamed papers with 200 concurrent
# queries, zero errors, ≥2 epoch advances, WAL warm restart bit-identical.
serve-smoke:
	cargo run --release -p iuad-bench --bin iuad -- serve-smoke

# What the CI `serve-crash` job runs: the crash matrix — kill the serving
# pipeline at every named crash point (WAL append, torn record, publish,
# torn checkpoint, checkpoint rename), recover from disk, and require
# bit-identity with an uncrashed control at each one.
serve-crash:
	cargo run --release -p iuad-bench --bin iuad -- serve-crash

# What the CI `serve-replica` job runs: the replication gate — the replica
# fault matrix (torn ship frame, follower kills around an apply, link
# partition, primary death; follower pinned bit-identical to the primary's
# durable prefix at every point) plus the failover smoke (mixed
# ingest/read run through the failover client across a partition and a
# primary death, zero client errors).
serve-replica:
	cargo run --release -p iuad-bench --bin iuad -- serve-replica

# Regenerate the paper's tables and figures.
repro:
	cargo run --release -p iuad-bench --bin repro -- all
