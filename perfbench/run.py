"""Benchmark for aspkit: seeded workloads of in-process CLI operations.

Run from the repository root::

    python3 perfbench/run.py --workload chain --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, one after another

A run sets the workload up (generated files under ``.perfbench/``),
then repeats passes over its fixed operation sequence, one
``aspkit.cli.main(argv)`` call at a time in this process, for about
``--seconds`` seconds; at least one pass always runs.  Every output is
checked.  An exception or a wrong output counts as a failed operation
and the run goes on; a wrong output also makes ``correct`` false.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
seven whole set-ups, each timed from a fresh interpreter's start),
``run_s`` (the sequence's wall time: the sum over its operations of
each one's median latency across the passes), ``op_p50_ms`` (the
median over the operations of those latencies), ``peak_rss_mib`` and
``meta_rules`` (rules printed by the sequence's ``metaenc`` calls).
Every operation time is scaled to a reference speed: it is multiplied
by ``REFERENCE_S`` over the time of a fixed pure-Python loop timed just
before and just after it (see ``reference_seconds``), because the CPUs
of a shared host can switch between speeds about 1.6x apart for seconds
to minutes at a time.  ``--trace 1`` reports the per-layer metrics from
spans around aspkit's functions, per pass, averaged over the passes.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
#: Set-ups timed per run, each in a fresh interpreter; setup_s is their median.
SETUP_SAMPLES = 7
#: Scaled times are seconds on a CPU that runs the reference loop in this time.
REFERENCE_S = 0.001
REFERENCE_ITERATIONS = 1500

CLI_LAYERS = ("solve", "optimize", "optimize_default", "check", "reify",
              "metaenc", "crosscheck")
META_PARTS = ("candidate", "guess", "evaluate", "check", "compare",
              "saturate", "accept")

END_TO_END = {"setup_s": "s", "run_s": "s", "op_p50_ms": "ms",
              "peak_rss_mib": "MiB", "meta_rules": "rules"}


def per_layer_units() -> dict[str, str]:
    units = {f"cli.{layer}_ms": "ms" for layer in CLI_LAYERS}
    for name in ("parser.parse_program_ms", "parser.parse_criteria_ms",
                 "reify.reify_ms", "reify.facts_to_text_ms",
                 "reify.parse_reified_ms", "consequence.sccs_ms",
                 "consequence.is_supported_model_ms",
                 "consequence.wait_levels_ms", "semantics.enumerate_ms",
                 "semantics.is_answer_set_ms", "optimize.dominance_ms",
                 "optimize.default_ms", "metaenc.build_ms",
                 "metaenc.to_text_ms", "metaenc.solve_ms",
                 "metaenc.screen_ms", "metaenc.refute_ms",
                 "metaenc.closure_ms"):
        units[name] = "ms"
    for name in ("parser.rules", "reify.facts", "consequence.components",
                 "semantics.interpretations", "semantics.answer_sets",
                 "optimize.dominance_tests", "optimize.optimal_sets",
                 "metaenc.candidates", "metaenc.stable_candidates",
                 "metaenc.refutations", "metaenc.accepted"):
        units[name] = "count"
    for part in META_PARTS:
        units[f"metaenc.rules.{part}"] = "count"
    units["metaenc.stable_ratio"] = "ratio"
    return units


def import_aspkit():
    """aspkit from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "aspkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no aspkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import aspkit.cli
    if Path(aspkit.__file__).resolve().parent != SRC / "aspkit":
        raise SystemExit(f"error: imported aspkit from {aspkit.__file__}")
    return aspkit.cli


def set_up(workload: str, seed: int, directory: Path):
    """Import aspkit, generate the workload and write its files."""
    cli = import_aspkit()
    import workloads
    w = workloads.build(workload, seed)
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    for name, text in w.files.items():
        (directory / name).write_text(text, encoding="utf-8")
    return cli, w


def reference_seconds() -> float:
    """Wall time of a fixed loop of the kind of work aspkit's own code
    does: dict, set and str operations, then building, grouping and
    sorting small frozensets and tuples.  It measures the CPU's current
    speed; aspkit's code plays no part in it."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    pairs = set()
    for i in range(REFERENCE_ITERATIONS):
        key = i * 7919 % 211
        counts[key] = counts.get(key, 0) + len(str(key))
        pairs.add((key, i & 7))
    groups: dict[int, list[frozenset]] = {}
    for i in range(REFERENCE_ITERATIONS):
        groups.setdefault(i % 97, []).append(frozenset((i, i % 13)))
    sorted(tuple(sorted(group, key=len)) for group in groups.values())
    return time.perf_counter() - start


def time_setups(workload: str, seed: int) -> list[float]:
    """Wall time of whole set-ups, each from a fresh interpreter's start.
    They are not scaled: a reference loop timed in an interpreter that
    has just started tracks its speed too poorly."""
    samples = []
    for i in range(SETUP_SAMPLES):
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--setup-only", "--workload", workload, "--seed",
                   str(seed), "--work", str(WORK / f"{workload}-setup{i}")]
        start = time.perf_counter()
        subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
        samples.append(time.perf_counter() - start)
        shutil.rmtree(WORK / f"{workload}-setup{i}")
    return samples


# -- tracing -------------------------------------------------------------------


def install_tracing(tracer) -> None:
    core = sys.modules["aspkit.core"]

    def rules(counts, args, result):
        counts["parser.rules"] += len(result.rules)

    def facts(counts, args, result):
        counts["reify.facts"] += len(result)

    def components(counts, args, result):
        counts["consequence.components"] += len(result.components)

    def enumerated(counts, args, result):
        counts["semantics.interpretations"] += 1 << len(core.atoms(args[0]))
        counts["semantics.answer_sets"] += len(result)

    def optimal(counts, args, result):
        counts["optimize.optimal_sets"] += len(result)

    def built(counts, args, result):
        for part in META_PARTS:
            counts[f"metaenc.rules.{part}"] += len(getattr(result, part))

    def screened(counts, args, result):
        counts["metaenc.candidates"] += 1
        counts["metaenc.stable_candidates"] += int(result)

    def refuted(counts, args, result):
        counts["metaenc.refutations"] += int(result)

    def accepted(counts, args, result):
        counts["metaenc.accepted"] += int(result)

    table = [
        ("aspkit.parser", "parse_program", rules),
        ("aspkit.parser", "parse_criteria", None),
        ("aspkit.reify", "reify", facts),
        ("aspkit.reify", "facts_to_text", None),
        ("aspkit.reify", "parse_reified", None),
        ("aspkit.consequence", "sccs", components),
        ("aspkit.consequence", "is_supported_model", None),
        ("aspkit.consequence", "wait_levels", None),
        ("aspkit.semantics", "enumerate_answer_sets", enumerated),
        ("aspkit.semantics", "is_answer_set", None),
        ("aspkit.optimize", "optimal_answer_sets", optimal),
        ("aspkit.optimize", "default_optimal", None),
        ("aspkit.metaenc", "build_meta_program", built),
        ("aspkit.metaenc", "MetaProgram.to_text", None),
        ("aspkit.metaenc", "solve_meta", None),
        ("aspkit.metaenc", "MetaSolver.candidate_stable", screened),
        ("aspkit.metaenc", "MetaSolver.refutes", refuted),
        ("aspkit.metaenc", "MetaSolver.accepted", accepted),
    ]
    for module, attr, count in table:
        tracer.install(module, attr, f"{module[7:]}.{attr}", count)
    # dominates is only counted: a span per call would dwarf the work.
    dominates = sys.modules["aspkit.optimize"].dominates
    tracer.replace(dominates,
                   tracer.counter("optimize.dominance_tests", dominates))


def layer_values(total, own, nested, counts) -> dict[str, float]:
    """Per-layer metrics of one pass from its spans and counts."""

    def ms(name):
        return 1000 * total.get(name, 0.0)

    out = {f"cli.{layer}_ms": ms(f"cli.{layer}") for layer in CLI_LAYERS}
    out.update({
        "parser.parse_program_ms": ms("parser.parse_program"),
        "parser.parse_criteria_ms": ms("parser.parse_criteria"),
        "reify.reify_ms": ms("reify.reify"),
        "reify.facts_to_text_ms": ms("reify.facts_to_text"),
        "reify.parse_reified_ms": ms("reify.parse_reified"),
        "consequence.sccs_ms": ms("consequence.sccs"),
        "consequence.is_supported_model_ms":
            ms("consequence.is_supported_model"),
        "consequence.wait_levels_ms": ms("consequence.wait_levels"),
        "semantics.enumerate_ms": ms("semantics.enumerate_answer_sets"),
        "semantics.is_answer_set_ms": ms("semantics.is_answer_set"),
        "optimize.dominance_ms": ms("optimize.optimal_answer_sets") - 1000 *
            nested.get(("optimize.optimal_answer_sets",
                        "semantics.enumerate_answer_sets"), 0.0),
        "optimize.default_ms": ms("optimize.default_optimal"),
        "metaenc.build_ms": ms("metaenc.build_meta_program"),
        "metaenc.to_text_ms": ms("metaenc.MetaProgram.to_text"),
        "metaenc.solve_ms": ms("metaenc.solve_meta"),
        "metaenc.screen_ms": ms("metaenc.MetaSolver.candidate_stable"),
        "metaenc.refute_ms": ms("metaenc.MetaSolver.refutes"),
        "metaenc.closure_ms": 1000 * own.get("metaenc.MetaSolver.accepted", 0.0),
    })
    for name, unit in per_layer_units().items():
        if unit != "ms" and name != "metaenc.stable_ratio":
            out[name] = counts.get(name, 0)
    candidates = counts.get("metaenc.candidates", 0)
    out["metaenc.stable_ratio"] = (
        counts.get("metaenc.stable_candidates", 0) / candidates
        if candidates else 0.0)
    return out


# -- running -------------------------------------------------------------------


def run_op(main, argv: list[str]) -> tuple[float, int | None, str, str | None]:
    """(seconds, exit code, stdout, exception name) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        error = None
    except Exception as exc:  # counted as a failed operation
        code, error = None, type(exc).__name__
    return time.perf_counter() - start, code, out.getvalue(), error


def run(args) -> dict:
    directory = WORK / args.workload
    cli, w = set_up(args.workload, args.seed, directory)
    setups = time_setups(args.workload, args.seed) if not args.trace else []
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        install_tracing(tracer)
    argvs = [[str(directory / a) if a in w.files else a for a in op.argv]
             for op in w.ops]

    verified: dict[int, tuple[int, str]] = {}
    reported: set[int] = set()
    correct = True
    attempted = failed = 0
    latencies: list[list[float]] = [[] for _ in w.ops]
    scaled: list[list[float]] = [[] for _ in w.ops]
    pass_seconds: list[float] = []
    pass_walls: list[float] = []
    layer_passes: list[dict[str, float]] = []
    meta_rules = 0
    loop_start = time.perf_counter()
    reference = reference_seconds()
    while True:
        wall_start = time.perf_counter()
        this_pass = 0.0
        meta_rules = 0
        for index, (op, argv) in enumerate(zip(w.ops, argvs)):
            # Garbage left by earlier calls is collected first, untimed,
            # so each call starts from the same heap, as a fresh aspkit
            # process would.
            gc.collect()
            if tracer is None:
                before = reference
                seconds, code, out, error = run_op(cli.main, argv)
                reference = reference_seconds()
                scaled[index].append(
                    seconds * REFERENCE_S * 2 / (before + reference))
            else:
                with tracer.span(f"cli.{op.layer}"):
                    seconds, code, out, error = run_op(cli.main, argv)
                tracer.enabled = False
            attempted += 1
            this_pass += seconds
            latencies[index].append(seconds)
            problem = error
            if problem is None and verified.get(index) != (code, out):
                problem = op.check(code, out)
                if problem is None:
                    verified[index] = (code, out)
                else:
                    correct = False
            if tracer is not None:
                tracer.enabled = True
            if problem is not None:
                failed += 1
                if index not in reported:
                    reported.add(index)
                    print(f"failed: {' '.join(op.argv)}: {problem}",
                          file=sys.stderr)
            elif op.layer == "metaenc":
                meta_rules += sum(not line.startswith("%")
                                  for line in out.splitlines())
        pass_seconds.append(this_pass)
        pass_walls.append(time.perf_counter() - wall_start)
        if tracer is not None:
            layer_passes.append(layer_values(*tracer.take()))
        elapsed = time.perf_counter() - loop_start
        if elapsed + statistics.median(pass_walls) > args.seconds:
            break

    if tracer is not None:
        units = per_layer_units()
        metrics = {name: {"value": statistics.fmean(p[name] for p in layer_passes),
                          "unit": unit} for name, unit in units.items()}
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        per_op = [statistics.median(op) for op in scaled]
        values = {"setup_s": statistics.median(setups),
                  "run_s": sum(per_op),
                  "op_p50_ms": 1000 * statistics.median(per_op),
                  "peak_rss_mib": peak,
                  "meta_rules": meta_rules}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(f"{args.workload}: seed {args.seed}, {len(w.ops)} operations per "
          f"pass, pass seconds {' '.join(f'{s:.3f}' for s in pass_seconds)}")
    if tracer is None:
        print(f"{args.workload} unscaled run_s "
              f"{sum(statistics.median(op) for op in latencies)} s")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']} {metric['unit']}")
    print(f"{args.workload} attempted {attempted} failed {failed}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_all(args) -> dict:
    """Every workload in its own interpreter, so each peak RSS is its own."""
    import workloads
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(command, check=True, stdout=subprocess.PIPE,
                              text=True)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    return combined


def main() -> int:
    import workloads
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--work", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_only:
        set_up(args.workload, args.seed, Path(args.work))
        return 0
    result = run_all(args) if args.workload == "all" else run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
