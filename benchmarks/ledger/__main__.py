"""Entry point: ``python3 benchmarks/ledger`` or ``python -m benchmarks.ledger``.

Run as a directory the package has no parent on ``sys.path``; run with
``-m`` it has.  Either way the repository root (for ``benchmarks.ledger``)
and ``src/`` (for ``repro``) are put there before anything is imported,
so the command needs no ``PYTHONPATH``.
"""

import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parents[2]

if not (_ROOT / "src" / "repro").is_dir() or not (_ROOT / "BENCHMARK.json").is_file():
    sys.stderr.write(
        f"benchmarks/ledger: no system to measure — expected src/repro and "
        f"BENCHMARK.json under {_ROOT}\n"
    )
    raise SystemExit(2)

for entry in (str(_ROOT / "src"), str(_ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from benchmarks.ledger.cli import main  # noqa: E402

raise SystemExit(main())
