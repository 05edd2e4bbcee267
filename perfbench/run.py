"""procline benchmark: one command, three workloads, an optional layer trace.

Run from the root of a checkout::

    python3 perfbench/run.py --workload scaled-merge --seed 1 --seconds 20 --trace 0

Every workload is a family of XML inputs generated from ``--seed`` before
anything is timed. One round runs the same user-visible operations over the
family, one after the other (a closed loop with a single caller):

* ``procline merge`` and ``procline validate`` on every derivable variant,
  and ``procline stats`` as text and as CSV, each in a fresh subprocess;
* the same derivations in-process (``merge_chain``, ``serialize_model``,
  ``serialize_trace``) and the same statistics in-process (parse every
  file, ``usage_report``, ``export_stats_csv``, ``render_stats_text``).

Rounds repeat until ``--seconds`` have passed. Every operation's seconds are
normalised to the machine's quiet speed (see ``speed.py``); a metric sums,
over its operations, each one's median over the rounds. With ``--trace 1``
the CLI commands go through ``procline.cli.main`` in this process instead,
rounds alternate untraced and traced, and the per-layer metrics come from
the spans of the traced rounds.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Result and span files land in
``.perfbench/`` at the checkout root.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib.util
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from speed import Speed, per_op_median  # noqa: E402
from tracer import Tracer, totals  # noqa: E402

#: Why each workload exists is in README.md next to this file.
WORKLOADS = {
    "study-cli": {"family": "study"},
    "scaled-merge": {"family": "scaled", "k": 2},
    "wide-stats": {"family": "wide", "variants": 300, "draws": 100},
}
#: in-process passes per round: (derivations, statistics). A timed round
#: repeats the short in-process operations so that each metric gets a few
#: dozen samples per run; the long CLI pass runs once.
PASSES = {"study-cli": (3, 15), "scaled-merge": (2, 10), "wide-stats": (3, 1)}
TIMED_METRICS = ("cli_merge_s", "cli_validate_s", "cli_stats_s", "derive_s", "stats_s")
SETUP_PROBES = 5
IMPORT_PROBES = 5
#: the whole run must end well inside the 180 s a run may take
DEADLINE_S = 170
CLI_ENTRY = "from procline.cli import main; raise SystemExit(main())"


class BenchError(Exception):
    pass


class Child:
    """Runs one child process at a time; reports wall time, exit code and peak RSS."""

    def __init__(self, env):
        self.env = env
        self.pid = None

    def run(self, argv, log):
        fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        actions = [(os.POSIX_SPAWN_DUP2, fd, 1), (os.POSIX_SPAWN_DUP2, fd, 2)]
        start = time.perf_counter()
        try:
            self.pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env, file_actions=actions)
            _, status, usage = os.wait4(self.pid, 0)
            self.pid = None
        finally:
            os.close(fd)
        return time.perf_counter() - start, os.waitstatus_to_exitcode(status), usage.ru_maxrss

    def kill(self):
        if self.pid is not None:
            with contextlib.suppress(ProcessLookupError):
                os.kill(self.pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):
                os.waitpid(self.pid, 0)
            self.pid = None


def _timeout(signum, frame):
    raise BenchError(f"run exceeded {DEADLINE_S} s")


def _terminated(signum, frame):
    raise BenchError(f"stopped by signal {signum}")


def _load_oracle(checkout):
    spec = importlib.util.spec_from_file_location("perfbench_oracle", checkout / "tests" / "oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Family:
    """The generated inputs of one run and the CLI commands that use them."""

    def __init__(self, work, manifest, order_rng):
        self.dir = work / "family"
        self.out = work / "out"
        self.logs = work / "logs"
        self.out.mkdir()
        self.logs.mkdir()
        self.root = self.dir / manifest["root"]
        self.extensions = [self.dir / name for name in manifest["extensions"]]
        self.chains = manifest["chains"]
        self.tag = manifest["tag"]
        self.k = manifest["k"]
        self.variants = list(self.chains)
        order_rng.shuffle(self.variants)

    def _argv(self, command, variant=None, fmt=None):
        argv = [command, "--root", str(self.root)]
        files = self.extensions if variant is None else [self.dir / n for n in self.chains[variant]]
        for path in files:
            argv += ["--extension", str(path)]
        if command == "merge":
            argv += ["--leaf", variant, "--out", str(self.merged(variant)), "--trace", str(self.trace(variant))]
        elif command == "validate":
            argv += ["--leaf", variant]
        else:
            argv += ["--format", fmt, "--out", str(self.out / f"stats.{fmt}")]
        return argv

    def commands(self):
        """(metric, label, argv) of one CLI pass."""
        cmds = [("cli_merge_s", f"merge-{v}", self._argv("merge", v)) for v in self.variants]
        cmds += [("cli_validate_s", f"validate-{v}", self._argv("validate", v)) for v in self.variants]
        cmds += [("cli_stats_s", f"stats-{f}", self._argv("stats", fmt=f)) for f in ("text", "csv")]
        return cmds

    def merged(self, variant):
        return self.out / f"{variant}.xml"

    def trace(self, variant):
        return self.out / f"{variant}-trace.xml"


class InProcess:
    """The in-process operations. They call procline through module
    attributes, so that the tracer sees every call."""

    def __init__(self, procline, family):
        self.pl = procline
        self.family = family
        self.catalog = procline.builtin_catalog()
        self.texts = {p.name: p.read_text(encoding="utf-8") for p in [family.root, *family.extensions]}
        root = procline.parse_model(self.texts[family.root.name], source=family.root.name)
        extensions = [procline.parse_extension(self.texts[p.name], source=p.name) for p in family.extensions]
        self.variant_set = procline.VariantSet.of(root, extensions)

    def derive(self, variant):
        pl = self.pl
        model, trace = pl.merge_chain(self.variant_set, variant, self.catalog)
        return model, trace, pl.serialize_model(model), pl.serialize_trace(trace)

    def stats(self):
        pl, names = self.pl, [p.name for p in self.family.extensions]
        root = pl.parse_model(self.texts[self.family.root.name], source=self.family.root.name)
        extensions = [pl.parse_extension(self.texts[n], source=n) for n in names]
        report = pl.usage_report(pl.VariantSet.of(root, extensions), self.catalog)
        return pl.export_stats_csv(report), pl.render_stats_text(report)


def _digest(derived, stats):
    h = hashlib.sha256()
    for variant in sorted(derived):
        h.update(derived[variant][2].encode())
        h.update(derived[variant][3].encode())
    for text in stats:
        h.update(text.encode())
    return h.hexdigest()


class Bench:
    def __init__(self, args, checkout):
        self.args = args
        self.checkout = checkout
        self.data = checkout / "src" / "procline" / "data"
        self.base = checkout / ".perfbench"
        self.work = self.base / f"{args.workload}-seed{args.seed}-{os.getpid()}"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"), env.get("PYTHONPATH")]))
        self.child = Child(env)
        self.speed = Speed(lambda argv: self.child.run(argv, self.work / "reference.log")[0])
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.cli_rss_kb = 0
        self.details = {}

    # -- preparation --------------------------------------------------------

    def generate(self, family, out, **sizes):
        argv = [str(HERE / "gen.py"), "--family", family, "--seed", str(self.args.seed),
                "--data", str(self.data), "--out", str(out)]
        for name, value in sizes.items():
            argv += [f"--{name}", str(value)]
        log = out.with_suffix(".json")
        _, code, _ = self.child.run(argv, log)
        if code != 0:
            raise BenchError(f"input generation failed: {log.read_text()[-2000:]}")
        return json.loads(log.read_text())

    def probe(self, argv, count):
        """Normalised wall times, and stdout, of ``count`` fresh interpreters after one warm-up."""
        log = self.work / "probe.log"
        outputs = []
        self.speed.tick("child")
        for index in range(count + 1):
            seconds, code, _ = self.child.run(argv, log)
            if code != 0:
                raise BenchError(f"probe {argv} failed: {log.read_text()[-2000:]}")
            self.speed.record(index, seconds, "child")
            outputs.append(log.read_text())
        normalised, _, factor = self.speed.take()
        return [normalised[i] for i in range(1, count + 1)], outputs[1:], factor

    # -- rounds ---------------------------------------------------------------

    def cli_pass(self, family):
        for metric, label, argv in family.commands():
            seconds, code, rss = self.child.run(["-c", CLI_ENTRY, *argv], family.logs / f"{label}.log")
            self.attempted += 1
            if code != 0:
                self.failed += 1
                self.problems.append(f"procline {label} exited with {code}")
            self.cli_rss_kb = max(self.cli_rss_kb, rss)
            self.speed.record((metric, label), seconds, "child")

    def cli_main_pass(self, procline, family, tracer):
        for _, label, argv in family.commands():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = tracer.span(f"bench.{label.split('-')[0]}", procline.cli.main, argv)
            (family.logs / f"{label}.log").write_text(out.getvalue() + err.getvalue(), encoding="utf-8")
            self.attempted += 1
            if code != 0:
                self.failed += 1
                self.problems.append(f"procline.cli.main {label} returned {code}")
            self.speed.tick()

    def in_process(self, ops, tracer=None, passes=(1, 1)):
        # a full collection before each operation, outside its time, so that
        # garbage left by earlier operations is not collected inside it
        span = tracer.span if tracer else (lambda name, fn, *args: fn(*args))
        derived = {}
        self.speed.tick()
        for index in range(passes[0]):
            for variant in ops.family.variants:
                gc.collect()
                start = time.perf_counter()
                derived[variant] = span("bench.derive", ops.derive, variant)
                self.speed.record(("derive_s", variant, index), time.perf_counter() - start)
                self.attempted += 1
        for index in range(passes[1]):
            gc.collect()
            start = time.perf_counter()
            stats = span("bench.stats", ops.stats)
            self.speed.record(("stats_s", "stats", index), time.perf_counter() - start)
            self.attempted += 1
        return derived, stats

    # -- checks ---------------------------------------------------------------

    def check(self, procline, ops, family, derived, stats, digests):
        unscaled = family.dir
        if family.k > 1:
            unscaled = self.work / "unscaled"
            self.generate("study", unscaled)
        catalog_text = (self.data / "catalog.xml").read_text(encoding="utf-8")
        expected = checks.oracle_derivations(_load_oracle(self.checkout), unscaled, family.chains, catalog_text)
        problems = self.problems
        if len(set(digests)) != 1:
            problems.append("rounds produced different outputs")
        for variant in family.variants:
            model, trace, model_text, trace_text = derived[variant]
            problems += checks.check_derived(variant, expected[variant], model_text, trace_text, family.tag, family.k)
            problems += checks.check_replay(procline, variant, ops.variant_set.root, model, trace)
            problems += checks.check_fixed_point(procline, variant, model_text)
            merged = family.merged(variant).read_text(encoding="utf-8")
            cli_trace = family.trace(variant).read_text(encoding="utf-8")
            problems += [
                f"CLI {p}"
                for p in checks.check_derived(variant, expected[variant], merged, cli_trace, family.tag, family.k)
            ]
            log = (family.logs / f"validate-{variant}.log").read_text(encoding="utf-8")
            if not log.startswith(f"OK: variant {variant!r} validates and merges"):
                problems.append(f"CLI validate {variant}: unexpected report {log[:200]!r}")
        counts, variants = checks.count_exemplars(family.extensions)
        csv_text, text = stats
        problems += checks.check_stats_csv(csv_text, counts, variants)
        problems += checks.check_stats_text(text, counts, variants)
        cli_csv = (family.out / "stats.csv").read_text(encoding="utf-8")
        cli_text = (family.out / "stats.text").read_text(encoding="utf-8")
        problems += [f"CLI {p}" for p in checks.check_stats_csv(cli_csv, counts, variants)]
        problems += [f"CLI {p}" for p in checks.check_stats_text(cli_text, counts, variants)]

    # -- the two kinds of run ---------------------------------------------------

    def timed_run(self, procline, family):
        setup, _, _ = self.probe([str(HERE / "probe.py"), "setup", str(family.dir)], SETUP_PROBES)
        ops = InProcess(procline, family)
        rounds, raw, factors, digests = [], [], [], []
        start = time.perf_counter()
        while True:
            self.speed.tick("child")
            self.cli_pass(family)
            derived, stats = self.in_process(ops, passes=PASSES[self.args.workload])
            normalised, seconds, factor = self.speed.take()
            rounds.append(normalised)
            raw.append(seconds)
            factors.append(factor)
            digests.append(_digest(derived, stats))
            if time.perf_counter() - start >= self.args.seconds:
                break
        own_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.check(procline, ops, family, derived, stats, digests)
        metrics = {"setup_s": (statistics.median(setup), "s")}
        for name in TIMED_METRICS:
            metrics[name] = (per_op_median(rounds, name), "s")
        metrics["peak_rss_mb"] = (max(own_rss_kb, self.cli_rss_kb) / 1024, "MB")
        self.details = {
            "setup_probes_s": setup,
            "slowdown_factors": factors,
            "raw_seconds": {name: per_op_median(raw, name) for name in TIMED_METRICS},
            "rounds": [{name: per_op_median([r], name) for name in TIMED_METRICS} for r in rounds],
        }
        return metrics

    def traced_run(self, procline, family):
        interpreter, _, _ = self.probe(["-c", "pass"], IMPORT_PROBES)
        _, imports, import_factor = self.probe([str(HERE / "probe.py"), "import"], IMPORT_PROBES)
        ops = InProcess(procline, family)
        tracer = Tracer()
        plain, traced, layers, digests = [], [], [], []
        start = time.perf_counter()
        while True:
            self.in_process(ops)
            plain.append(self.speed.take()[0])
            tracer.install()
            try:
                self.speed.tick()
                self.cli_main_pass(procline, family, tracer)
                derived, stats = self.in_process(ops, tracer)
            finally:
                tracer.restore()
            normalised, _, factor = self.speed.take()
            traced.append(normalised)
            digests.append(_digest(derived, stats))
            layers.append(layer_metrics(tracer, factor))
            spans, counts, span_factor = list(tracer.spans), dict(tracer.counts), factor
            tracer.reset()
            if time.perf_counter() - start >= self.args.seconds:
                break
        self.check(procline, ops, family, derived, stats, digests)
        metrics = {
            "import.interpreter_ms": (statistics.median(interpreter) * 1e3, "ms"),
            # the probe times the import from inside; normalised like the wall times
            "import.procline_ms": (statistics.median(float(out) for out in imports) * 1e3 / import_factor, "ms"),
        }
        for name, (_, unit) in layers[0].items():
            metrics[name] = (statistics.median(r[name][0] for r in layers), unit)
        metrics["trace.overhead_s"] = (per_op_median(traced, "derive_s") - per_op_median(plain, "derive_s"), "s")
        self.write_trace(spans, counts, span_factor, tracer.absent, metrics)
        return metrics

    def write_trace(self, spans, counts, factor, absent, metrics):
        breakdown = {
            root: {n: [i / 1e6 / factor, s / 1e6 / factor] for n, (i, s) in sorted(totals(spans, root).items())}
            for root in sorted({s[0] for s in spans if s[3] < 0})
        }
        path = self.base / f"trace-{self.args.workload}-seed{self.args.seed}.json"
        path.write_text(json.dumps({
            "workload": self.args.workload,
            "seed": self.args.seed,
            "absent": absent,
            "counts": counts,
            "slowdown_factor": factor,
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "normalised_ms_by_operation": breakdown,
            "spans": spans,
        }), encoding="utf-8")
        print(f"trace written to {path}; absent functions: {absent or 'none'}", file=sys.stderr)


def layer_metrics(tracer, factor):
    """Per-layer figures of one traced round as {name: (value, unit)}; times
    are divided by the round's slowdown factor."""
    tot = totals(tracer.spans)
    counts = tracer.counts

    def ms(name, part=0):
        return tot.get(name, (0, 0))[part] / 1e6 / factor

    parse_s = (ms("xmlio.parse_model") + ms("xmlio.parse_extension")) / 1e3
    steps = counts["merge.atomic_steps"]
    return {
        "catalog.builtin_ms": (ms("catalog.builtin_catalog"), "ms"),
        "catalog.validate_exemplar_self_ms": (ms("catalog.validate_exemplar", 1), "ms"),
        "catalog.validate_exemplar_calls": (counts["catalog.validate_exemplar"], "count"),
        "catalog.expand_exemplar_calls": (counts["catalog.expand_exemplar"], "count"),
        "atomic.apply_atomic_ms": (ms("atomic.apply_atomic"), "ms"),
        "atomic.apply_atomic_calls": (counts["atomic.apply_atomic"], "count"),
        "atomic.validate_step_calls": (counts["atomic.validate_step"], "count"),
        "atomic.validations_per_step": (counts["atomic.validate_step"] / steps if steps else 0.0, "ratio"),
        "model.compare_models_ms": (ms("model.compare_models"), "ms"),
        "model.compare_models_calls": (counts["model.compare_models"], "count"),
        "model.diffed_items": (counts["model.diffed_items"], "count"),
        "model.remove_element_ms": (ms("model.remove_element"), "ms"),
        "model.check_consistency_ms": (ms("model.check_consistency"), "ms"),
        "merge.merge_once_self_ms": (ms("merge.merge_once", 1), "ms"),
        "merge.merge_once_calls": (counts["merge.merge_once"], "count"),
        "merge.trace_entries": (counts["merge.trace_entries"], "count"),
        "merge.atomic_steps": (steps, "count"),
        "merge.cascaded_references": (counts["merge.cascaded_references"], "count"),
        "xmlio.parse_model_ms": (ms("xmlio.parse_model"), "ms"),
        "xmlio.parse_extension_ms": (ms("xmlio.parse_extension"), "ms"),
        "xmlio.parsed_items": (counts["xmlio.parsed_items"], "count"),
        "xmlio.parse_items_per_s": (counts["xmlio.parsed_items"] / parse_s if parse_s else 0.0, "1/s"),
        "xmlio.serialize_model_ms": (ms("xmlio.serialize_model"), "ms"),
        "xmlio.serialize_trace_ms": (ms("xmlio.serialize_trace"), "ms"),
        "xmlio.serialized_bytes": (counts["xmlio.serialized_bytes"], "bytes"),
        "xmlio.stats_render_ms": (ms("xmlio.export_stats_csv") + ms("xmlio.render_stats_text"), "ms"),
        "analytics.usage_report_ms": (ms("analytics.usage_report"), "ms"),
        "analytics.exemplars_counted": (counts["analytics.exemplars_counted"], "count"),
        "cli.main_ms": (ms("cli.main"), "ms"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description="procline benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    checkout = Path.cwd()
    needed = ("src/procline/__init__.py", "src/procline/data/root.xml", "tests/oracle.py")
    missing = [p for p in needed if not (checkout / p).is_file()]
    if missing:
        print(f"error: run from the root of a procline checkout (missing {', '.join(missing)})", file=sys.stderr)
        return 2

    signal.signal(signal.SIGALRM, _timeout)
    signal.signal(signal.SIGTERM, _terminated)
    signal.alarm(DEADLINE_S)
    bench = Bench(args, checkout)
    try:
        bench.work.mkdir(parents=True)
        spec = dict(WORKLOADS[args.workload])
        manifest = bench.generate(spec.pop("family"), bench.work / "family", **spec)
        family = Family(bench.work, manifest, random.Random(f"order-{args.seed}"))
        sys.path.insert(0, str(checkout / "src"))
        import procline
        import procline.cli  # noqa: F401  (the tracer wraps cli.main)

        if Path(procline.__file__).resolve().parent != (checkout / "src" / "procline").resolve():
            raise BenchError(f"imported procline from {procline.__file__}, not from this checkout")
        metrics = (bench.traced_run if args.trace else bench.timed_run)(procline, family)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
        bench.child.kill()
        shutil.rmtree(bench.work, ignore_errors=True)

    for problem in bench.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    details = {"workload": args.workload, "seed": args.seed, "problems": bench.problems, **bench.details}
    (bench.base / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"result": result, **details}, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
