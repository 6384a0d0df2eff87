"""Seeded workload inputs for the benchmark.

Documents come from the test suite's generator (tests/corpusgen.py), so the
benchmark and the acceptance tests share one notion of "pseudo-classical
text". Gold labels for held-out text are read off the raw documents here,
independently of the package, so the benchmark can score what the CLI
prints.
"""

from __future__ import annotations

import math
import random
import statistics
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MARKS = "。，；"
# `gujiseg prepare` drops documents of this many characters or fewer.
MIN_LENGTH = 30
# The set-up probe punctuates one line of this many characters, so that
# set-up time does not depend on which document a seed puts first.
SETUP_LINE_CHARS = 100
# Mean characters per clause of make_raw_document, used to turn a target
# document length into a clause count.
CHARS_PER_CLAUSE = 5.2


def use_checkout() -> None:
    """Make the checkout's package and test generator importable.

    Raises FileNotFoundError when the benchmark directory was copied out of
    the repository, so the caller can fail before producing any number.
    """
    needed = (ROOT / "src" / "gujiseg" / "cli.py", ROOT / "tests" / "corpusgen.py")
    for path in needed:
        if not path.is_file():
            raise FileNotFoundError(f"{path.relative_to(ROOT)} not found next to the benchmark")
    for path in (ROOT / "tests", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


@dataclass(frozen=True)
class Workload:
    name: str
    features: str
    n_train: int
    n_held: int
    max_iterations: int
    f1_floor: float
    # None: criterion-8 documents (82-95 clauses). Otherwise a document is
    # MIN_LENGTH characters plus a log-normal part with this sigma and median.
    sigma: float | None = None
    median_chars: int = 0

    @property
    def lexicons(self) -> bool:
        """Whether the feature set reads the rhyme dictionary or entity lexicon."""
        return any(f == "w" or f.startswith("ry:") for f in self.features.split(","))


# Every workload trains for exactly max_iterations steps: TOLERANCE is small
# enough that the relative-change test never stops training first (with the
# default, some uniform seeds stop at 36 of 45), so train_cpu_s measures cost
# per step and not how a seed happened to converge.
TOLERANCE = "1e-12"
WORKLOADS = {
    w.name: w
    for w in (
        Workload("uniform", "c,b", n_train=30, n_held=50, max_iterations=45, f1_floor=0.8),
        Workload("longtail", "c,b", n_train=50, n_held=80, max_iterations=12, f1_floor=0.6,
                 sigma=1.8, median_chars=30),
        Workload("punctuate-rich", "c,b,ry:guangyun,w,pmi", n_train=30, n_held=110,
                 max_iterations=40, f1_floor=0.8),
    )
}


@dataclass
class Inputs:
    raw: Path
    plain: Path
    one_line: Path
    plain_lines: list[str]
    gold: list[str]
    expected_corpus: list[tuple[str, str]]
    train_flags: list[str]
    stats: dict


def strip_marks(raw: str) -> tuple[str, str]:
    """(characters, M/O labels) of a punctuated line: a character is M when
    a mark follows it."""
    chars: list[str] = []
    labels: list[str] = []
    for ch in raw:
        if ch in MARKS:
            if labels:
                labels[-1] = "M"
        else:
            chars.append(ch)
            labels.append("O")
    return "".join(chars), "".join(labels)


def _documents(wl: Workload, rng: random.Random, n: int) -> list[str]:
    from corpusgen import make_raw_document

    if wl.sigma is None:
        return [make_raw_document(rng, 82, 95) for _ in range(n)]
    # Lengths at fixed log-normal quantiles: every seed gets the same length
    # profile (and so the same padded batch shape); the seed picks the text
    # and the order.
    normal = statistics.NormalDist()
    clauses = []
    for i in range(n):
        z = normal.inv_cdf((i + 0.5) / n)
        chars = MIN_LENGTH + wl.median_chars * math.exp(wl.sigma * z)
        clauses.append(max(1, round(chars / CHARS_PER_CLAUSE)))
    rng.shuffle(clauses)
    return [make_raw_document(rng, c, c) for c in clauses]


def _length_stats(lengths: list[int]) -> dict:
    return {
        "chars": sum(lengths),
        "max_len": max(lengths),
        "median_len": statistics.median(lengths),
        "pad_ratio": round(len(lengths) * max(lengths) / sum(lengths), 3),
    }


def _write_lexicons(rng: random.Random, out: Path) -> list[str]:
    """A synthetic guangyun-style rhyme dictionary and entity lexicon over
    the generator's character inventory; returns the matching CLI flags."""
    import corpusgen as cg

    inventory = list(dict.fromkeys(
        cg.FINAL_PARTICLES + cg.INITIAL_PARTICLES + "".join(cg.L_CHARS + cg.R_CHARS)
        + "".join(c for group in cg.MARKERS.values() for c in group)
        + "".join(cg.IDIOMS) + "".join(cg.FILLER)
    ))
    rhyme_lines = []
    for ch in inventory:
        rhyme_lines.append(f"{ch}\tR{rng.randrange(60):02d}")
        if rng.random() < 0.15:  # polyphones carry a second class
            rhyme_lines.append(f"{ch}\tR{rng.randrange(60):02d}")
    entities = [(idiom, "PLACE") for idiom in cg.IDIOMS[:10]]
    entities += [(l + r, "OFFICE") for l, r in zip(cg.L_CHARS[:12], cg.R_CHARS[:12])]
    entities += [("".join(rng.choices(cg.FILLER[:30], k=rng.choice((2, 3)))), "REIGN")
                 for _ in range(40)]
    rhymes = out / "guangyun.tsv"
    lexicon = out / "entities.tsv"
    rhymes.write_text("\n".join(rhyme_lines) + "\n", encoding="utf-8")
    lexicon.write_text("".join(f"{w}\t{t}\n" for w, t in dict(entities).items()), encoding="utf-8")
    return ["--rhyme-dict", f"guangyun={rhymes}", "--lexicon", str(lexicon)]


def generate(wl: Workload, seed: int, out: Path) -> Inputs:
    """Write the workload's inputs for `seed` into `out`; same seed, same bytes."""
    rng = random.Random(f"{wl.name}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    train_docs = _documents(wl, rng, wl.n_train)
    held_docs = _documents(wl, rng, wl.n_held)
    train_flags = _write_lexicons(rng, out) if wl.lexicons else []

    raw = out / "raw.txt"
    raw.write_text("\n".join(train_docs) + "\n", encoding="utf-8")
    expected = [strip_marks(d) for d in train_docs]
    kept = [(c, l) for c, l in expected if len(c) > MIN_LENGTH]
    held = [strip_marks(d) for d in held_docs]
    plain_lines = [c for c, _ in held]
    plain = out / "plain.txt"
    plain.write_text("\n".join(plain_lines) + "\n", encoding="utf-8")
    one_line = out / "one_line.txt"
    one_line.write_text(plain_lines[0][:SETUP_LINE_CHARS] + "\n", encoding="utf-8")

    stats = {
        "docs": len(expected),
        "docs_kept": len(kept),
        "docs_dropped": len(expected) - len(kept),
        "train": _length_stats([len(c) for c, _ in kept]),
        "held_out": _length_stats([len(c) for c in plain_lines]),
    }
    return Inputs(raw, plain, one_line, plain_lines, [l for _, l in held], kept,
                  train_flags, stats)
