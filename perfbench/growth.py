"""How derive_s grows with the number of copies k of the study family.

For each k, writes the scaled family under ``.perfbench/``, parses it with
procline and derives every variant in-process (``merge_chain``,
``serialize_model``, ``serialize_trace``) ``--repeat`` times; prints the
median normalised seconds per k, as JSON lines. Run from the checkout root::

    python3 perfbench/growth.py --k 1 2 3 4 --repeat 3
"""

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from speed import Speed  # noqa: E402


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--k", type=int, nargs="+", required=True)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args(argv)
    checkout = Path.cwd()
    sys.path.insert(0, str(checkout / "src"))
    import procline

    catalog = procline.builtin_catalog()
    speed = Speed()
    for k in args.k:
        work = checkout / ".perfbench" / f"growth-k{k}"
        work.mkdir(parents=True, exist_ok=True)
        try:
            files = gen.scaled_family(checkout / "src" / "procline" / "data", k, 0)
            for name, text in files.items():
                (work / name).write_text(text, encoding="utf-8", newline="")
            root = procline.parse_model((work / gen.ROOT_FILE).read_text(encoding="utf-8"))
            exts = [procline.parse_extension((work / n).read_text(encoding="utf-8")) for n in gen.STUDY_FILES.values()]
            variant_set = procline.VariantSet.of(root, exts)
            speed.tick()
            for rep in range(args.repeat):
                start = time.perf_counter()
                entries = 0
                for variant in gen.STUDY_FILES:
                    model, trace = procline.merge_chain(variant_set, variant, catalog)
                    procline.serialize_model(model)
                    procline.serialize_trace(trace)
                    entries += len(trace)
                speed.record(rep, time.perf_counter() - start)
            times = list(speed.take()[0].values())
            items = len(root.elements) + len(root.references)
            print(json.dumps({"k": k, "derive_s": statistics.median(times), "trace_entries": entries, "root_items": items}))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
