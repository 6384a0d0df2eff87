"""Command-line front end.

Data goes to stdout or to files; progress and warnings go to stderr.
prepare, train, sweep, ablate and pmi-build drop a JSON manifest next to
their output recording the command, flags, input digests, and split seed,
so results stay traceable; punctuate -o writes none. Only the helpers that
write manifests and results import hashlib, json, csv and datetime, so
punctuate and evaluate load none of them for themselves.

Run as a program (`python -m gujiseg.cli` or the `gujiseg` script), a command
ends without the interpreter's teardown once its files are closed and stdout
and stderr are flushed; see run. main returns the exit code and leaves the
process running, for callers in the same process.

Exit codes: 0 success, 1 experiment-level failure, 2 usage/I-O error.
"""

from __future__ import annotations

import argparse
import importlib
import logging
import os
import sys
from pathlib import Path
from typing import Iterable, NoReturn, Sequence

# gujiseg makes no BLAS call, but numpy's OpenBLAS starts a worker thread on
# import that spins on a second core until it times out: about 0.13 s of CPU
# per process on 2 cores. Set before any command loads numpy; a value the
# caller set wins. Only the CLI sets it, so importing the library changes no
# environment.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import __version__
from .corpus import (
    DEFAULT_BOUNDARY,
    DEFAULT_DISCARD,
    CorpusFormatError,
    EmptySequenceError,
    LabeledSequence,
    _check_labeled_corpus,
    corpus_stats,
    filter_short,
    labelize,
    parse_corpus,
    read_labeled_corpus,
    read_text_utf8,
    reinsert_marks,
    strip_marks,
    write_labeled_corpus,
)
from .lexicons import (
    LexiconFormatError,
    LexiconSet,
    build_pmi_table,
    load_entity_lexicon,
    load_pmi_table,
    load_rhyme_dict,
    save_pmi_table,
)

# The names this module uses from the modules that load numpy. main binds
# them into the globals before a command outside _NUMPY_FREE runs, and
# attribute access (`cli.train`) binds them through __getattr__ (PEP 562).
# Binding never replaces a value already set on the module, such as a
# wrapper around `cli.train`.
_NUMERIC = {
    "crf": ("TrainConfig", "TrainingError", "load_model", "save_model", "train"),
    "evaluation": ("SplitError", "SplitSpec", "evaluate", "predict_labels", "run_experiment",
                   "training_set"),
    "features": ("FeatureConfig", "featurize_chars"),
}
# Commands that need only the standard library, corpus and lexicons.
_NUMPY_FREE = frozenset({"prepare", "pmi-build"})

logger = logging.getLogger("gujiseg")

RESULTS_SCHEMA = "gujiseg-results-v1"
RESULTS_HEADER = ("trial", "k", "features", "precision", "recall", "f1", "item_accuracy")

TABLE1_FEATURE_SETS = ("c", "c,b", "c,b,ry:guangyun", "c,b,ry:pingshuiyun")
TABLE1_WIDTHS = (1, 2)
TABLE2_FEATURE_SETS = ("c,b", "c,b,w", "c,b,pmi")
TABLE2_WIDTHS = (1, 2, 3, 4)


class ConfigurationError(ValueError):
    """Bad flag combinations (missing lexicons and the like)."""


def _bind_numeric() -> None:
    bound = globals()
    for module, names in _NUMERIC.items():
        source = importlib.import_module(f".{module}", __package__)
        for name in names:
            bound.setdefault(name, getattr(source, name))


def __getattr__(name: str):
    if not any(name in names for names in _NUMERIC.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind_numeric()
    return globals()[name]


# The manifest and results helpers import hashlib, json, csv and datetime
# themselves: hashlib alone maps OpenSSL's libcrypto, and punctuate and
# evaluate write neither. (numpy's core loads datetime anyway.)
def _now() -> str:
    from datetime import datetime, timezone
    return datetime.now(timezone.utc).isoformat()


def _sha256(path: str) -> str:
    import hashlib
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_path: str, args: argparse.Namespace, inputs: Sequence[str],
                    started: str) -> str:
    import json
    manifest_path = Path(str(out_path) + ".manifest.json")
    snapshot = {k: v for k, v in vars(args).items() if k != "func"}
    manifest = {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "config": snapshot,
        "inputs": {p: _sha256(p) for p in inputs},
        "started": started,
        "finished": _now(),
    }
    manifest_path.write_text(
        json.dumps(manifest, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
    return manifest_path.name


def _f(value: float) -> str:
    return f"{value:.6f}"


def _write_results_csv(out_path: str, rows: Iterable[Sequence[str]], manifest_name: str) -> None:
    import csv
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# schema: {RESULTS_SCHEMA}\n")
        fh.write(f"# manifest: {manifest_name}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(RESULTS_HEADER)
        writer.writerows(rows)


def _load_lexicons(args: argparse.Namespace) -> tuple[LexiconSet, list[str]]:
    """The resources the lexicon flags name, and the paths read from."""
    rhyme_dicts = {}
    paths = []
    for item in args.rhyme_dict or []:
        source, sep, path = item.partition("=")
        if not sep or not path:
            raise ConfigurationError(
                f"--rhyme-dict expects SOURCE=PATH (e.g. guangyun=gy.tsv), got {item!r}"
            )
        source = source.lower()
        rhyme_dicts[source] = load_rhyme_dict(read_text_utf8(path), source)
        paths.append(path)
    entities = None
    if args.lexicon:
        entities = load_entity_lexicon(read_text_utf8(args.lexicon))
        paths.append(args.lexicon)
    pmi = None
    if args.pmi_table:
        pmi = load_pmi_table(read_text_utf8(args.pmi_table))
        paths.append(args.pmi_table)
    return LexiconSet(rhyme_dicts, entities, pmi), paths


def _require_resources(cfg: FeatureConfig, lexicons: LexiconSet, pmi_ok: bool = False) -> None:
    if cfg.pronunciation is not None and cfg.pronunciation not in lexicons.rhyme_dicts:
        raise ConfigurationError(
            f"feature set needs a {cfg.pronunciation} rhyme dictionary:"
            f" pass --rhyme-dict {cfg.pronunciation}=PATH"
        )
    if cfg.use_words and lexicons.entities is None:
        raise ConfigurationError("feature set needs an entity lexicon: pass --lexicon PATH")
    if cfg.use_pmi and lexicons.pmi is None and not pmi_ok:
        raise ConfigurationError("feature set needs a PMI table: pass --pmi-table PATH")


def _split_spec(args: argparse.Namespace) -> SplitSpec:
    return SplitSpec(args.train_ratio, args.seed, args.trials)


def _train_config(args: argparse.Namespace) -> TrainConfig:
    return TrainConfig(args.sigma, args.max_iterations, args.tolerance)


def _experiment_rows(docs, conditions, split_spec, train_cfg, lexicons) -> list[list[str]]:
    rows: list[list[str]] = []
    for cfg in conditions:
        logger.info("running %s k=%d (%d trials)", cfg.spec(), cfg.k, split_spec.repetitions)
        result = run_experiment(docs, cfg, train_cfg, split_spec, lexicons)
        spec_str = cfg.spec()
        for t, m in enumerate(result.per_trial):
            rows.append([str(t), str(cfg.k), spec_str,
                         _f(m.precision), _f(m.recall), _f(m.f1), _f(m.item_accuracy)])
        rows.append(["mean", str(cfg.k), spec_str,
                     _f(result.mean_precision), _f(result.mean_recall),
                     _f(result.f1_of_means), _f(result.mean_item_accuracy)])
    return rows


def cmd_prepare(args: argparse.Namespace) -> int:
    started = _now()
    boundary = frozenset(args.boundary)
    discard = (frozenset(args.discard) if args.discard is not None else DEFAULT_DISCARD)
    discard = discard - boundary
    docs = parse_corpus(read_text_utf8(args.corpus), args.format)
    labeled = []
    empty = 0
    for doc in docs:
        try:
            labeled.append(labelize(doc, boundary, discard))
        except EmptySequenceError:
            empty += 1
    kept = filter_short(labeled, args.min_length)
    stats = corpus_stats(kept)
    # checked before -o is opened: a refused corpus leaves the file as it was
    _check_labeled_corpus(kept)
    with open(args.output, "w", encoding="utf-8") as fh:
        write_labeled_corpus(kept, fh)
    _write_manifest(args.output, args, [args.corpus], started)
    report = [
        ("docs_parsed", len(docs)),
        ("docs_kept", stats.doc_count),
        ("docs_dropped", len(docs) - stats.doc_count),
        ("docs_empty", empty),
        ("char_tokens", stats.char_token_count),
        ("char_types", stats.char_type_count),
        ("boundary_marks", stats.boundary_mark_count),
        ("mean_chars_per_doc", f"{stats.mean_chars_per_doc:.4f}"),
    ]
    for key, value in report:
        print(f"{key}\t{value}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    started = _now()
    train_cfg = _train_config(args)  # a bad flag fails before any work
    docs = read_labeled_corpus(read_text_utf8(args.corpus))
    if not docs:
        raise ConfigurationError(f"no sequences in {args.corpus}")
    cfg = FeatureConfig.from_spec(args.features, args.k)
    lexicons, lexicon_paths = _load_lexicons(args)
    _require_resources(cfg, lexicons, pmi_ok=True)
    if cfg.use_pmi and lexicons.pmi is None:
        table = build_pmi_table(docs, args.min_count)
        side = str(args.output) + ".pmi.tsv"
        with open(side, "w", encoding="utf-8") as fh:
            save_pmi_table(table, fh)
        logger.info("built PMI table from %d sequences, saved to %s", len(docs), side)
        lexicons = LexiconSet(lexicons.rhyme_dicts, lexicons.entities, table)
    logger.info("attributes of the first position: %s",
                " ".join(featurize_chars(docs[0].chars, cfg, lexicons)[0]))
    model = train(training_set(docs, cfg, lexicons), train_cfg, cfg)
    with open(args.output, "w", encoding="utf-8") as fh:
        save_model(model, fh)
    _write_manifest(args.output, args, [args.corpus, *lexicon_paths], started)
    meta = model.meta
    logger.info("trained on %d sequences: %d iterations, objective %.6f, stopped by %s",
                len(docs), meta.iterations, meta.final_objective, meta.stopped_by)
    return 0


def cmd_punctuate(args: argparse.Namespace) -> int:
    # a mark that breaks a line would break the one-line-per-line output
    if len((args.mark + ".").splitlines()) > 1:
        raise ConfigurationError(f"--mark {args.mark!r} holds a line break")
    model = load_model(read_text_utf8(args.model))
    lexicons, _ = _load_lexicons(args)
    _require_resources(model.config, lexicons)
    text = read_text_utf8(args.input)
    boundary_found = sum(map(text.count, DEFAULT_BOUNDARY))
    stripped = [strip_marks(line) for line in text.splitlines()]
    if boundary_found:
        logger.warning("input already contains %d boundary marks; stripped before decoding",
                       boundary_found)
    by_line = iter(predict_labels(model, [s for s in stripped if s], lexicons))
    out_lines = [
        reinsert_marks(LabeledSequence("", s, "".join(next(by_line))), args.mark) if s else ""
        for s in stripped
    ]
    output = "\n".join(out_lines)
    if output:
        output += "\n"
    if args.output:
        Path(args.output).write_text(output, encoding="utf-8")
    else:
        sys.stdout.write(output)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    model = load_model(read_text_utf8(args.model))
    lexicons, _ = _load_lexicons(args)
    _require_resources(model.config, lexicons)
    docs = read_labeled_corpus(read_text_utf8(args.corpus))
    if not docs:
        raise ConfigurationError(f"no sequences in {args.corpus}")
    preds = predict_labels(model, [d.chars for d in docs], lexicons)
    metrics = evaluate(docs, preds)
    for key, value in (
        ("precision", metrics.precision),
        ("recall", metrics.recall),
        ("f1", metrics.f1),
        ("item_accuracy", metrics.item_accuracy),
    ):
        print(f"{key}\t{_f(value)}")
    return 0


def _run_grid(args: argparse.Namespace, feature_sets: Sequence[str],
              widths: Sequence[int]) -> int:
    """Repeated-holdout experiments over every (feature set, k) pair; writes
    the results CSV and its manifest."""
    started = _now()
    docs = read_labeled_corpus(read_text_utf8(args.corpus))
    lexicons, lexicon_paths = _load_lexicons(args)
    conditions = []
    for spec_str in feature_sets:
        for k in widths:
            cfg = FeatureConfig.from_spec(spec_str, k)
            _require_resources(cfg, lexicons, pmi_ok=True)
            conditions.append(cfg)
    rows = _experiment_rows(docs, conditions, _split_spec(args), _train_config(args), lexicons)
    manifest = _write_manifest(args.output, args, [args.corpus, *lexicon_paths], started)
    _write_results_csv(args.output, rows, manifest)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.k_min < 1 or args.k_max < args.k_min:
        raise ConfigurationError(f"bad k range [{args.k_min}, {args.k_max}]")
    return _run_grid(args, args.features or ["c", "c,b"], range(args.k_min, args.k_max + 1))


def cmd_ablate(args: argparse.Namespace) -> int:
    if args.preset == "table1":
        return _run_grid(args, TABLE1_FEATURE_SETS, TABLE1_WIDTHS)
    return _run_grid(args, TABLE2_FEATURE_SETS, TABLE2_WIDTHS)


def cmd_pmi_build(args: argparse.Namespace) -> int:
    started = _now()
    docs = read_labeled_corpus(read_text_utf8(args.corpus))
    table = build_pmi_table(docs, args.min_count)
    with open(args.output, "w", encoding="utf-8") as fh:
        save_pmi_table(table, fh)
    _write_manifest(args.output, args, [args.corpus], started)
    logger.info("PMI table: %d pairs from %d adjacent bigrams",
                len(table.pmi), table.total_bigrams)
    return 0


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=42, help="RNG seed for splits")
    p.add_argument("--trials", type=int, default=3, help="repetitions per condition")
    p.add_argument("--train-ratio", type=float, default=0.7, help="training fraction")


def _add_train_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--sigma", type=float, default=1.0, help="L2 prior sigma")
    p.add_argument("--max-iterations", type=int, default=200)
    p.add_argument("--tolerance", type=float, default=1e-5,
                   help="relative objective change to stop at")


def _add_lexicon_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rhyme-dict", action="append", metavar="SOURCE=PATH",
                   help="rhyme dictionary TSV (repeatable)")
    p.add_argument("--lexicon", help="entity lexicon TSV")
    p.add_argument("--pmi-table", help="precomputed PMI table TSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gujiseg",
        description="Sentence segmentation for unpunctuated classical Chinese text.",
    )
    parser.add_argument("--version", action="version", version=f"gujiseg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("prepare", help="convert raw text to a labeled corpus")
    p.add_argument("corpus", help="raw corpus file")
    p.add_argument("-o", "--output", required=True, help="labeled corpus to write")
    p.add_argument("--format", choices=("lines", "blocks"), default="lines")
    p.add_argument("--boundary", default="".join(sorted(DEFAULT_BOUNDARY)),
                   help="punctuation characters treated as segment boundaries")
    p.add_argument("--discard", default=None,
                   help="characters stripped without producing labels")
    p.add_argument("--min-length", type=int, default=30,
                   help="drop sequences with at most this many characters")
    p.set_defaults(func=cmd_prepare)

    p = sub.add_parser("train", help="train a model on a labeled corpus")
    p.add_argument("corpus", help="labeled corpus file")
    p.add_argument("-o", "--output", required=True, help="model file to write")
    p.add_argument("--features", default="c,b", help="feature set, e.g. c,b,ry:guangyun,w,pmi")
    p.add_argument("--k", type=int, default=2, help="context window radius")
    p.add_argument("--min-count", type=int, default=5, help="PMI joint-count threshold")
    _add_train_flags(p)
    _add_lexicon_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("punctuate", help="insert marks into raw text with a trained model")
    p.add_argument("model", help="model file")
    p.add_argument("input", help="raw text, one sequence per line")
    p.add_argument("-o", "--output", help="write here instead of stdout")
    p.add_argument("--mark", default="，", help="mark inserted after M-labeled characters")
    _add_lexicon_flags(p)
    p.set_defaults(func=cmd_punctuate)

    p = sub.add_parser("evaluate", help="score a model against a labeled corpus")
    p.add_argument("model", help="model file")
    p.add_argument("corpus", help="labeled corpus file")
    _add_lexicon_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="sweep context sizes over feature sets")
    p.add_argument("corpus", help="labeled corpus file")
    p.add_argument("-o", "--output", required=True, help="results CSV to write")
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--features", action="append",
                   help="feature set to include (repeatable; default c and c,b)")
    _add_split_flags(p)
    _add_train_flags(p)
    _add_lexicon_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ablate", help="run a fixed feature-ablation grid")
    p.add_argument("corpus", help="labeled corpus file")
    p.add_argument("-o", "--output", required=True, help="results CSV to write")
    p.add_argument("--preset", choices=("table1", "table2"), required=True)
    _add_split_flags(p)
    _add_train_flags(p)
    _add_lexicon_flags(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("pmi-build", help="build a PMI table from a labeled corpus")
    p.add_argument("corpus", help="labeled corpus file")
    p.add_argument("-o", "--output", required=True, help="PMI TSV to write")
    p.add_argument("--min-count", type=int, default=5)
    p.set_defaults(func=cmd_pmi_build)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    numeric = args.command not in _NUMPY_FREE
    if numeric:
        _bind_numeric()
    # Only a numeric command can raise these, and it has bound them.
    failures = (TrainingError, SplitError) if numeric else ()
    try:
        return args.func(args)
    except failures as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (CorpusFormatError, LexiconFormatError, ConfigurationError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> NoReturn:
    """Process entry point: run main, flush and end the process.

    The interpreter's teardown frees every module, the model and its arrays,
    which the OS reclaims anyway, so once logging is shut down and stdout
    and stderr are flushed the process ends with os._exit.
    Files the commands write are closed before main returns. An exception or
    SystemExit leaving main, and a flush that fails, keep the interpreter's
    own exit, so errors and failed writes are reported as before.
    """
    code = main()
    logging.shutdown()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None when the descriptor was closed at start
                stream.flush()
    except (OSError, ValueError):
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    run()
