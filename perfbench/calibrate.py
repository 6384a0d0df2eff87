"""Reference job: a fixed amount of CPU work of the same kind gujiseg does.

    python3 perfbench/calibrate.py

Starts an interpreter, imports numpy, counts strings in a dict and runs a
forward-style recursion over small arrays, like the CLI's start-up,
featurizing and training. It does not import gujiseg, so a change to the
package cannot change its cost; only the machine can. The benchmark runs
it as a child process between the timed commands and divides their CPU
time by its own (see run.py), which cancels how fast the shared machine
happens to be running at that moment.
"""

import numpy as np


def main() -> None:
    counts: dict[str, int] = {}
    for i in range(60_000):
        key = f"c[{i % 977}]|b{i % 13}"
        counts[key] = counts.get(key, 0) + 1
    emis = np.sin(np.arange(30 * 120 * 2, dtype=float)).reshape(30, 120, 2)
    trans = np.array([[0.3, -0.2], [0.1, 0.4]])
    alpha = emis[:, 0, :]
    for _ in range(6):
        for t in range(1, emis.shape[1]):
            scores = alpha[:, :, None] + trans[None, :, :]
            top = scores.max(axis=1)
            alpha = top + np.log(np.exp(scores - top[:, None, :]).sum(axis=1)) + emis[:, t, :]
    if len(counts) != 977 * 13 or not np.all(np.isfinite(alpha)):
        raise SystemExit("reference job computed a wrong result")


if __name__ == "__main__":
    main()
