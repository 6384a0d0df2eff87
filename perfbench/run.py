"""gujiseg benchmark: prepare -> train -> punctuate through the CLI.

    python3 perfbench/run.py --workload uniform --seed 1 --seconds 40 --trace 0

With --trace 0 the pipeline runs as separate `python -m gujiseg.cli`
processes, one at a time, repeated while another repetition fits in
--seconds; each repetition ends with a one-line `punctuate` run that
times set-up. The end-to-end metrics are medians over repetitions.

Times are the children's CPU seconds (user + system, from os.wait4), scaled
to a machine of fixed speed: every command is bracketed by runs of a fixed
reference job (calibrate.py), and its CPU time is multiplied by
REFERENCE_CPU_S over the mean CPU time of the two reference runs around it.
On a shared virtual machine the same command's CPU time moves by up to 75 %
within minutes, as other tenants load the host; the reference job moves with
it, and the scaled time does not. Wall-clock and unscaled CPU medians are
printed alongside.

With --trace 1 the same commands run in-process through gujiseg.cli.main,
single-threaded, each repetition once untraced and once with spans around
the calls into every layer; the per-layer metrics are medians over the
traced passes, and trace.overhead_s is traced minus untraced pipeline time.

Every operation's output is checked; the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import traceback
from contextlib import nullcontext, redirect_stdout
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from time import perf_counter, process_time
from unittest import mock

from spans import Tracer, patched
from workloads import (MIN_LENGTH, ROOT, TOLERANCE, WORKLOADS, Inputs, Workload, generate,
                       strip_marks, use_checkout)

OUT_DIR = Path(__file__).resolve().parent / "out"
STAGES = ("prepare", "train", "punctuate")
# A child running longer than this is killed and counted as failed; with
# --seconds 40 a run that meets a hung child still ends within 180 s.
OP_TIMEOUT_S = 120.0
CALIBRATE = Path(__file__).resolve().parent / "calibrate.py"
# CPU seconds of calibrate.py on an uncontended core of the 2-vCPU Intel Xeon
# virtual machine the benchmark was built on: scaled times read as CPU
# seconds on that machine when nothing else loads its host.
REFERENCE_CPU_S = 0.25

# Per-layer metrics derived from span names: <name>_s is total time,
# <name>_self_s time not covered by child spans, <name>_calls the count.
TIMED = (
    "cli.prepare", "cli.train", "cli.punctuate",
    "corpus.parse", "corpus.labelize", "corpus.write_labeled", "corpus.read_labeled",
    "features.featurize_train", "features.featurize_decode", "lexicons.load",
    "crf.build_index", "crf.encode", "crf.objective", "crf.gradient", "crf.train",
    "crf.save_model", "crf.load_model", "evaluation.predict_labels", "crf.viterbi",
)
SELF_TIMED = ("cli.prepare", "cli.train", "cli.punctuate", "crf.train",
              "evaluation.predict_labels")
COUNTED = ("crf.objective", "crf.gradient", "crf.viterbi", "lexicons.tag_entities")
LEXICON_SPANS = ("lexicons.load", "lexicons.tag_entities", "lexicons.build_pmi")


@dataclass
class Outcome:
    """One CLI invocation: exit code, wall and CPU seconds, peak RSS, stdout,
    and the mean CPU seconds of the reference runs around it (0 if none)."""

    rc: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    ref_cpu_s: float = 0.0


@dataclass
class Ledger:
    """Operations attempted and the reasons the failed ones failed."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, op: str, error: str | None) -> bool:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{op}: {error}")
            print(f"# FAILED {op}: {error}")
        return error is None


def commands(wl: Workload, inp: Inputs, work: Path) -> dict[str, list[str]]:
    model = work / "model.txt"
    punctuate_flags = list(inp.train_flags)
    if "pmi" in wl.features.split(","):
        punctuate_flags += ["--pmi-table", f"{model}.pmi.tsv"]
    return {
        "prepare": ["prepare", str(inp.raw), "-o", str(work / "corpus.tsv"),
                    "--min-length", str(MIN_LENGTH)],
        "train": ["train", str(work / "corpus.tsv"), "-o", str(model),
                  "--features", wl.features, "--k", "2",
                  "--max-iterations", str(wl.max_iterations), "--tolerance", TOLERANCE,
                  *inp.train_flags],
        "punctuate": ["punctuate", str(model), str(inp.plain),
                      "-o", str(work / "punctuated.txt"), *punctuate_flags],
        "setup": ["punctuate", str(model), str(inp.one_line),
                  "-o", str(work / "one_line.out"), *punctuate_flags],
    }


def check_prepared(work: Path, stdout: str, inp: Inputs) -> str | None:
    report = dict(line.split("\t", 1) for line in stdout.splitlines() if "\t" in line)
    if report.get("docs_kept") != str(len(inp.expected_corpus)):
        return f"reported docs_kept {report.get('docs_kept')}, expected {len(inp.expected_corpus)}"
    docs = []
    for block in (work / "corpus.tsv").read_text(encoding="utf-8").split("\n\n"):
        rows = [line.split("\t") for line in block.splitlines()]
        if any(len(r) != 2 for r in rows):
            return "malformed labeled corpus line"
        docs.append(("".join(r[0] for r in rows), "".join(r[1] for r in rows)))
    if docs != inp.expected_corpus:
        return "labeled corpus does not match the marks of the raw text"
    return None


def check_model(work: Path) -> str | None:
    text = (work / "model.txt").read_text(encoding="utf-8")
    if not (text.startswith("crfmodel-v1\n") and text.endswith("\nend\n")):
        return "model file is not a complete crfmodel-v1 file"
    return None


def check_punctuated(text: str, plain_lines: list[str], gold: list[str],
                     f1_floor: float) -> tuple[str | None, float]:
    """(error or None, micro F1 on M) of punctuated output against gold."""
    out_lines = text.splitlines()
    if len(out_lines) != len(plain_lines):
        return f"{len(out_lines)} output lines for {len(plain_lines)} input lines", 0.0
    tp = fp = fn = 0
    for n, (got, line, want) in enumerate(zip(out_lines, plain_lines, gold), 1):
        chars, labels = strip_marks(got)
        if chars != line:
            return f"output line {n} does not strip back to its input", 0.0
        for g, p in zip(want, labels):
            tp += g == p == "M"
            fp += g == "O" and p == "M"
            fn += g == "M" and p == "O"
    f1 = 2 * tp / (2 * tp + fp + fn) if tp else 0.0
    if f1 < f1_floor:
        return f"F1 {f1:.4f} below floor {f1_floor}", f1
    return None, f1


def pipeline(invoke, cmds, wl: Workload, inp: Inputs, work: Path, ledger: Ledger) -> dict | None:
    """One checked prepare -> train -> punctuate pass; None once an operation fails."""
    rep: dict = {}
    for stage in STAGES:
        out = invoke(stage, cmds[stage])
        error = f"exit code {out.rc}" if out.rc != 0 else None
        if error is None and stage == "prepare":
            error = check_prepared(work, out.stdout, inp)
        elif error is None and stage == "train":
            error = check_model(work)
        elif error is None:
            data = (work / "punctuated.txt").read_bytes()
            rep["sha256"] = hashlib.sha256(data).hexdigest()
            error, rep["f1"] = check_punctuated(data.decode("utf-8"), inp.plain_lines,
                                                inp.gold, wl.f1_floor)
        if not ledger.check(stage, error):
            return None
        rep[f"{stage}_wall_s"] = out.wall_s
        rep[f"{stage}_cpu_s"] = out.cpu_s
        rep[f"{stage}_ref_cpu_s"] = out.ref_cpu_s
        rep[f"{stage}_rss_mb"] = out.rss_mb
    for clock in ("wall", "cpu"):
        rep[f"pipeline_{clock}_s"] = sum(rep[f"{stage}_{clock}_s"] for stage in STAGES)
    return rep


def run_child(argv: list[str], work: Path, stage: str, env: dict) -> Outcome:
    """Run `python argv` as a child process."""
    stdout_path = work / f"{stage}.stdout"
    with open(stdout_path, "wb") as out, open(work / f"{stage}.stderr", "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, *argv],
                                cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return Outcome(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                   usage.ru_maxrss / 1024.0, stdout_path.read_text(encoding="utf-8"))


def time_left(start: float, durations: list[float], seconds: float) -> bool:
    """Whether another repetition, as long as the median one so far, ends
    within `seconds` of `start`. The first repetition always runs."""
    return not durations or perf_counter() - start + statistics.median(durations) <= seconds


def run_end_to_end(wl: Workload, inp: Inputs, work: Path, seconds: float,
                   ledger: Ledger) -> tuple[dict, list[dict]]:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    # Measure the decode thread pool users get by default.
    env.pop("GUJISEG_THREADS", None)
    cmds = commands(wl, inp, work)

    def calibrate() -> float:
        out = run_child([str(CALIBRATE)], work, "calibrate", env)
        if out.rc != 0:
            raise RuntimeError(f"reference job exited with code {out.rc}")
        return out.cpu_s

    last_ref = calibrate()

    def invoke(stage, argv):
        nonlocal last_ref
        out = run_child(["-m", "gujiseg.cli", *argv], work, stage, env)
        ref = calibrate()
        out.ref_cpu_s, last_ref = (last_ref + ref) / 2, ref
        return out

    def scaled(cpu_s, ref_cpu_s):
        return cpu_s * REFERENCE_CPU_S / ref_cpu_s

    line = inp.one_line.read_text(encoding="utf-8").rstrip("\n")
    reps: list[dict] = []
    setups: list[Outcome] = []
    durations: list[float] = []
    start = perf_counter()
    while time_left(start, durations, seconds):
        rep_start = perf_counter()
        rep = pipeline(invoke, cmds, wl, inp, work, ledger)
        if rep is None:
            break
        for stage in STAGES:
            rep[f"{stage}_scaled_s"] = scaled(rep[f"{stage}_cpu_s"], rep[f"{stage}_ref_cpu_s"])
        rep["pipeline_scaled_s"] = sum(rep[f"{stage}_scaled_s"] for stage in STAGES)
        # One one-line punctuate run per repetition; setup_s is their median.
        out = invoke("setup", cmds["setup"])
        error = f"exit code {out.rc}" if out.rc != 0 else check_punctuated(
            (work / "one_line.out").read_text(encoding="utf-8"),
            [line], [inp.gold[0][:len(line)]], 0.0)[0]
        if ledger.check("setup", error):
            setups.append(out)
        reps.append(rep)
        durations.append(perf_counter() - rep_start)
    if not reps or not setups:
        return {}, reps
    chars = sum(map(len, inp.plain_lines))
    median = statistics.median
    wall = {
        "setup_wall_s": median(o.wall_s for o in setups),
        "pipeline_wall_s": median(r["pipeline_wall_s"] for r in reps),
        "train_wall_s": median(r["train_wall_s"] for r in reps),
        "punctuate_chars_per_wall_s": median(chars / r["punctuate_wall_s"] for r in reps),
    }
    unscaled = {
        "setup_cpu_s": median(o.cpu_s for o in setups),
        "pipeline_cpu_s": median(r["pipeline_cpu_s"] for r in reps),
        "train_cpu_s": median(r["train_cpu_s"] for r in reps),
        "punctuate_chars_per_cpu_s": median(chars / r["punctuate_cpu_s"] for r in reps),
        "reference_cpu_s": median(r["train_ref_cpu_s"] for r in reps),
    }
    print(f"# wall-clock medians {json.dumps(wall)}")
    print(f"# unscaled CPU medians {json.dumps(unscaled)}")
    return {
        "setup_s": median(scaled(o.cpu_s, o.ref_cpu_s) for o in setups),
        "pipeline_cpu_s": median(r["pipeline_scaled_s"] for r in reps),
        "train_cpu_s": median(r["train_scaled_s"] for r in reps),
        "punctuate_chars_per_cpu_s": median(chars / r["punctuate_scaled_s"] for r in reps),
        "f1": median(r["f1"] for r in reps),
        "train_peak_rss_mb": median(r["train_rss_mb"] for r in reps),
        "punctuate_peak_rss_mb": median(r["punctuate_rss_mb"] for r in reps),
    }, reps


def layer_targets(tracer: Tracer) -> list[tuple]:
    """Attributes to replace so each call into a layer records a span.

    Names are replaced where the caller looks them up: the CLI's own
    imports, the evaluation module's featurize_chars, the features module's
    tag_entities and the crf module's globals and _Encoded methods.
    """
    from gujiseg import cli, crf, evaluation, features

    counts = tracer.counts

    def attrs_emitted(args, rows):
        counts["features.attrs_emitted"] += sum(map(len, rows))

    def encoded(args, _):
        counts["crf.nnz"] = args[0].X.nnz

    def trained(args, model):
        counts["crf.attrs"] = len(model.attr_index)
        counts["crf.iterations"] = model.meta.iterations
        counts["crf.final_objective"] = model.meta.final_objective

    def wrap(owner, attr, name, observe=None):
        return owner, attr, tracer.wrap(name, getattr(owner, attr), observe)

    return [
        wrap(cli, "parse_corpus", "corpus.parse"),
        wrap(cli, "labelize", "corpus.labelize"),
        wrap(cli, "write_labeled_corpus", "corpus.write_labeled"),
        wrap(cli, "read_labeled_corpus", "corpus.read_labeled"),
        wrap(cli, "_load_lexicons", "lexicons.load"),
        wrap(cli, "build_pmi_table", "lexicons.build_pmi"),
        wrap(features, "tag_entities", "lexicons.tag_entities"),
        wrap(cli, "featurize_chars", "features.featurize_train", attrs_emitted),
        wrap(evaluation, "featurize_chars", "features.featurize_decode", attrs_emitted),
        wrap(cli, "train", "crf.train", trained),
        wrap(crf, "_build_attr_index", "crf.build_index"),
        wrap(crf._Encoded, "__init__", "crf.encode", encoded),
        wrap(crf._Encoded, "objective", "crf.objective"),
        wrap(crf._Encoded, "objective_and_gradient", "crf.gradient"),
        wrap(cli, "save_model", "crf.save_model"),
        wrap(cli, "load_model", "crf.load_model"),
        wrap(cli, "predict_labels", "evaluation.predict_labels"),
        wrap(crf, "viterbi", "crf.viterbi"),
    ]


def layer_metrics(tracer: Tracer, work: Path, overhead_s: float) -> dict:
    report = tracer.report()

    def get(name, key):
        return report.get(name, {}).get(key, 0)

    m = {f"{n}_s": get(n, "total_s") for n in TIMED}
    m.update({f"{n}_self_s": get(n, "self_s") for n in SELF_TIMED})
    m.update({f"{n}_calls": get(n, "calls") for n in COUNTED})
    m["lexicons.total_s"] = sum(get(n, "total_s") for n in LEXICON_SPANS)
    m.update(tracer.counts)
    m["crf.accepted_ratio"] = m["crf.iterations"] / m["crf.objective_calls"]
    m["crf.model_bytes"] = (work / "model.txt").stat().st_size
    m["trace.overhead_s"] = overhead_s
    return m


def in_process_invoker(tracer: Tracer | None):
    """Invoker running CLI commands through gujiseg.cli.main in this process,
    inside a cli.<stage> span when a tracer is given."""
    from gujiseg import cli

    def invoke(stage, argv):
        buf = io.StringIO()
        start, cpu = perf_counter(), process_time()
        with redirect_stdout(buf), (tracer.span(f"cli.{stage}") if tracer else nullcontext()):
            try:
                rc = cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:
                traceback.print_exc()
                rc = -1
        return Outcome(rc, perf_counter() - start, process_time() - cpu, 0.0, buf.getvalue())

    return invoke


def run_traced(wl: Workload, inp: Inputs, work: Path, seconds: float, ledger: Ledger,
               spans_path: Path) -> tuple[dict, list[dict]]:
    cmds = commands(wl, inp, work)
    rows: list[dict] = []
    reps: list[dict] = []
    durations: list[float] = []
    tracer = Tracer()
    start = perf_counter()
    # Single-threaded decoding, so spans nest and never overlap.
    with mock.patch.dict(os.environ, {"GUJISEG_THREADS": "1"}):
        while time_left(start, durations, seconds):
            rep_start = perf_counter()
            # Alternate which pass goes first: the first in-process pass of a
            # run is measurably slower, which would bias the overhead.
            tracer = Tracer()
            passes = {}
            for traced in ((False, True) if len(rows) % 2 == 0 else (True, False)):
                with patched(layer_targets(tracer) if traced else []):
                    passes[traced] = pipeline(in_process_invoker(tracer if traced else None),
                                              cmds, wl, inp, work, ledger)
                if passes[traced] is None:
                    break
            if None in passes.values():
                break
            reps.append(passes[True])
            overhead = passes[True]["pipeline_wall_s"] - passes[False]["pipeline_wall_s"]
            rows.append(layer_metrics(tracer, work, overhead))
            durations.append(perf_counter() - rep_start)
    tracer.write(spans_path)
    for name, row in sorted(tracer.report().items()):
        print(f"# span {name}: calls={row['calls']} total_s={row['total_s']:.6f}"
              f" self_s={row['self_s']:.6f}")
    if not rows:
        return {}, reps
    return {k: statistics.median(r[k] for r in rows) for k in rows[0]}, reps


def machine_facts(seed: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "seed": seed,
    }


def run(wl: Workload, seed: int, seconds: float, trace: bool, out_dir: Path = OUT_DIR) -> dict:
    """Generate the workload for `seed`, measure it and return the result
    object; details go to stdout as '#' lines and to a JSON file in out_dir."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if trace else "end_to_end"]
    stem = f"{wl.name}-seed{seed}-trace{int(trace)}"
    work = out_dir / stem
    shutil.rmtree(work, ignore_errors=True)
    inp = generate(wl, seed, work / "inputs")
    facts = machine_facts(seed)
    print(f"# machine {json.dumps(facts)}")
    print(f"# workload {wl.name} {json.dumps(inp.stats)}")
    ledger = Ledger()
    if trace:
        values, reps = run_traced(wl, inp, work, seconds, ledger, out_dir / f"{stem}.spans.json")
    else:
        values, reps = run_end_to_end(wl, inp, work, seconds, ledger)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing and not ledger.failures:
        ledger.failures.append(f"no value for {', '.join(missing)}")
    result = {
        "correct": not ledger.failures,
        "attempted": max(ledger.attempted, 1),
        "failed": len(ledger.failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in values},
    }
    print(f"# fail_ratio {result['failed'] / result['attempted']} "
          f"({result['failed']} of {result['attempted']} operations)")
    print(f"# output sha256 {sorted({r['sha256'] for r in reps})}")
    details = {"machine": facts, "workload": wl.name, "stats": inp.stats, "repetitions": reps,
               "failures": ledger.failures, **result}
    (out_dir / f"{stem}.json").write_text(
        json.dumps(details, indent=1) + "\n", encoding="utf-8")
    if result["correct"]:
        shutil.rmtree(work)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        use_checkout()
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
