"""One benchmark child process: time ``import codedmask``, then run the CLI.

Usage::

    python3 perfbench/child.py RESULT.json [--trace OP] [CLI ARGS...]

With no CLI arguments the child only imports the package (a set-up probe).
It writes ``{"setup_s": ..., "exit": ..., "spans": ..., "counts": ...}`` to
RESULT.json and exits with the CLI's exit code.  ``--trace OP`` records
spans of the codedmask layers under operation id OP.  This module imports
only the standard library at load time, so ``timed_import`` measures the
package's own import cost (numpy, scipy and sympy included).
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def timed_import() -> float:
    """Import codedmask and codedmask.cli from this checkout; return seconds."""
    init = SRC / "codedmask" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"perfbench: no codedmask source at {init.parent}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import codedmask
    import codedmask.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if Path(codedmask.__file__).resolve() != init.resolve():
        raise SystemExit(f"perfbench: imported codedmask from "
                         f"{codedmask.__file__}, not from {SRC}")
    return elapsed


def main(argv: list[str]) -> int:
    result_path, rest = Path(argv[0]), argv[1:]
    op = None
    if rest[:1] == ["--trace"]:
        op, rest = int(rest[1]), rest[2:]
    out: dict = {"setup_s": timed_import(), "exit": 0}
    if rest:
        cli = sys.modules["codedmask.cli"]
        tracer = None
        if op is not None:
            from spans import Tracer
            tracer = Tracer()
            tracer.op = op
            tracer.install()
        out["exit"] = cli.main(rest)
        if tracer is not None:
            hits, misses = tracer.cache_counts()
            tracer.counts["spectra.basis_cache.hits"] += hits
            tracer.counts["spectra.basis_cache.misses"] += misses
            out["spans"] = tracer.spans
            out["counts"] = dict(tracer.counts)
    result_path.write_text(json.dumps(out))
    return out["exit"]


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
