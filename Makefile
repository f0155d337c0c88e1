# Tier-1 check: the whole test suite, run the way ROADMAP.md gives it.
.PHONY: check
check:
	PYTHONPATH=src$${PYTHONPATH:+:$$PYTHONPATH} python -m pytest -q --continue-on-collection-errors
