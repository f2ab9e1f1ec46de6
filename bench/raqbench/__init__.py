"""The Raqlet benchmark harness (see ``bench/README.md``).

Everything the benchmark needs lives under ``bench/``; the program under
test (``src/repro``) is only ever called through its public functions.
"""
