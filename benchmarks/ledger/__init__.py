"""The performance ledger: one harness, four served workloads.

See ``README.md`` in this directory; run with ``python3 benchmarks/ledger``
or ``PYTHONPATH=src python -m benchmarks.ledger`` from the repository root.
"""
