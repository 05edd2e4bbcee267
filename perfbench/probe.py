"""Fresh-interpreter probes, run as a child process by ``run.py``.

``probe.py setup DIR`` imports procline, builds the built-in catalog and
parses every input file of the family in DIR; its wall time from spawn to
exit is the workload's set-up time. ``probe.py import`` prints how long
``import procline`` takes inside a fresh interpreter, in seconds.
"""

import sys
import time


def main(argv):
    if argv[0] == "import":
        start = time.perf_counter()
        import procline  # noqa: F401

        print(time.perf_counter() - start)
        return 0
    from pathlib import Path

    import procline

    family = Path(argv[1])
    procline.builtin_catalog()
    procline.parse_model((family / "root.xml").read_text(encoding="utf-8"), source="root.xml")
    for path in sorted(family.glob("ext-*.xml")):
        procline.parse_extension(path.read_text(encoding="utf-8"), source=path.name)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
