"""Time the program's set-up in a fresh interpreter.

    python3 perfbench/cold_setup.py <module> <resolve-envelope 0|1> <src dir>

Imports ``<module>`` (``schemalens`` or ``schemalens.cli``) from ``<src dir>``
and, with ``1``, loads the manifest and the LEI corpus and resolves the LEI
envelope. Prints three numbers: the set-up seconds and the speed-probe
seconds right before and right after it, each the middle of three probes. Before the clock starts only what
the interpreter loads at start-up, ``gc``, ``time`` and the probe are
loaded, so the standard-library modules the program imports are timed as a
user's first import pays for them.
"""

import sys
from time import perf_counter

from probe import probe


def lei_envelope(sl):
    """The resolved LEI envelope, as ``validate-stream`` sets it up."""
    lei = sl.load_manifest().schema_set("lei")
    return sl.resolve(sl.load_corpus(lei.corpus_dir), lei.envelope)


def _probe3() -> float:
    return sorted([probe(), probe(), probe()])[1]


def main() -> None:
    module, envelope, src = sys.argv[1:]
    sys.path.insert(0, src)
    probe()
    before = _probe3()
    start = perf_counter()
    sl = __import__(module)  # the package; a submodule is imported too
    if envelope == "1":
        lei_envelope(sl)
    elapsed = perf_counter() - start
    print(elapsed, before, _probe3())


if __name__ == "__main__":
    main()
