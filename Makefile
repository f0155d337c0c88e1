# Tier-1 check: the whole test suite, run the way ROADMAP.md gives it,
# then the ten slowest tests.
.PHONY: check
check:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q --continue-on-collection-errors --durations=10

# The size measure of ROADMAP.md: total lines of src/minis2s/*.py.
.PHONY: lines
lines:
	@cat src/minis2s/*.py | wc -l

# The same lines split into docstring, comment, blank and code lines, from
# each module's AST and tokens, for commit REF's committed modules (REF is
# HEAD unless given) and for this checkout's, with each delta: the deltas
# ROADMAP.md asks for.
.PHONY: code-lines
code-lines:
	@python3 tools/code_lines.py --ref $(REF)

# One run of a benchmark workload (train-asr, decode-asr or tts), for the
# alternating parent/change pairs a speed claim reports.
W ?= tts
SEED ?= 0
.PHONY: bench
bench:
	python3 perfbench/run.py --workload $(W) --seed $(SEED) --seconds 10

# Alternating benchmark pairs of commit REF against this checkout on
# workload W, seeds 1..N: every run, each side's median and quartiles per
# end-to-end metric, and the pairs this checkout wins; the same record goes
# to BENCH_$(W).json at the checkout root.
REF ?= HEAD
N ?= 10
.PHONY: pairs
pairs:
	python3 tools/pairs.py --ref $(REF) --workload $(W) --pairs $(N)

# Byte-for-byte comparison of commit REF's training artifacts (log.csv and
# checkpoints) against this checkout's, and of its `decode --nbest 8` and
# `synth` outputs, on checkpoints this checkout trains.
.PHONY: same-outputs
same-outputs:
	python3 tools/same_outputs.py --ref $(REF)

# The functions and lines of src/minis2s that the benchmark's workloads
# (one set-up and one execution each, seed 1) never run, traced per line.
.PHONY: traffic
traffic:
	python3 tools/traffic.py
