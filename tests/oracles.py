"""Independent reference implementations used to pin down expected values.

Everything here recomputes results from first principles (exhaustive
enumeration, direct arithmetic) without touching the library's inference
code paths, so tests compare two genuinely separate derivations.
"""

import itertools
import math

import numpy as np


def emission_score(model, attrs_t, label_id):
    total = 0.0
    for a in attrs_t:
        j = model.attr_index.get(a)
        if j is not None:
            total += float(model.state_weights[j, label_id])
    return total


def path_score(model, attrs, label_ids):
    total = emission_score(model, attrs[0], label_ids[0])
    for t in range(1, len(attrs)):
        total += emission_score(model, attrs[t], label_ids[t])
        total += float(model.trans_weights[label_ids[t - 1], label_ids[t]])
    return total


def enumerate_scores(model, attrs):
    n = len(model.labels)
    return {
        combo: path_score(model, attrs, combo)
        for combo in itertools.product(range(n), repeat=len(attrs))
    }


def brute_log_partition(model, attrs):
    scores = enumerate_scores(model, attrs)
    m = max(scores.values())
    return m + math.log(sum(math.exp(s - m) for s in scores.values()))


def brute_marginals(model, attrs):
    scores = enumerate_scores(model, attrs)
    log_z = brute_log_partition(model, attrs)
    t_len, n = len(attrs), len(model.labels)
    unary = [[0.0] * n for _ in range(t_len)]
    pairwise = [[[0.0] * n for _ in range(n)] for _ in range(t_len - 1)]
    for combo, score in scores.items():
        p = math.exp(score - log_z)
        for t, y in enumerate(combo):
            unary[t][y] += p
        for t in range(t_len - 1):
            pairwise[t][combo[t]][combo[t + 1]] += p
    return unary, pairwise


def brute_viterbi(model, attrs):
    """First maximizer in lexicographic label-index order: that is exactly
    'earlier canonical label wins, decided left to right'."""
    scores = enumerate_scores(model, attrs)
    best = max(scores.values())
    for combo in sorted(scores):
        if scores[combo] == best:
            return list(combo), best
    raise AssertionError("unreachable")


def brute_objective(model, dataset, l2_sigma):
    total = 0.0
    for attrs, labels in dataset:
        ids = [model.labels.index(l) for l in labels]
        total += path_score(model, attrs, ids) - brute_log_partition(model, attrs)
    penalty = 0.0
    for row in model.state_weights:
        penalty += sum(float(w) ** 2 for w in row)
    for row in model.trans_weights:
        penalty += sum(float(w) ** 2 for w in row)
    return total - penalty / (2.0 * l2_sigma**2)


def fd_gradient(objective, perturb, h=1e-5):
    """Central finite difference of a scalar function along one coordinate:
    objective() is evaluated after perturb(+h) and perturb(-h)."""
    perturb(+h)
    f_plus = objective()
    perturb(-2 * h)
    f_minus = objective()
    perturb(+h)
    return (f_plus - f_minus) / (2 * h)


def reference_forward(emis, trans, k, off):
    """Packed forward scores, one log-sum-exp reduction per step."""
    k, off = k.tolist(), off.tolist()
    alpha = np.empty_like(emis)
    alpha[: k[0]] = emis[: k[0]]
    for t in range(1, len(k)):
        prev = alpha[off[t - 1] : off[t - 1] + k[t], :, None]
        rows = slice(off[t], off[t] + k[t])
        alpha[rows] = emis[rows] + np.logaddexp.reduce(prev + trans, axis=1)
    return alpha


def reference_backward(emis, trans, k, off, add=np.logaddexp):
    """Packed backward scores in the semiring whose sum is `add`, one
    reduction per step."""
    k, off = k.tolist(), off.tolist()
    beta = np.zeros_like(emis)
    for t in range(len(k) - 2, -1, -1):
        nxt = slice(off[t + 1], off[t + 1] + k[t + 1])
        ahead = (emis[nxt] + beta[nxt])[:, None, :]
        beta[off[t] : off[t] + k[t + 1]] = add.reduce(trans + ahead, axis=2)
    return beta


def reference_viterbi_path(emis, trans, k, off):
    """Packed label ids of the best paths: best suffixes by the max-plus
    backward recursion, then np.argmax forward, one step at a time."""
    suffix = emis + reference_backward(emis, trans, k, off, np.maximum)
    steps, starts = k.tolist(), off.tolist()
    path = np.empty(len(emis), dtype=np.int64)
    path[: steps[0]] = np.argmax(suffix[: steps[0]], axis=1)
    for t in range(1, len(steps)):
        prev = path[starts[t - 1] : starts[t - 1] + steps[t]]
        rows = slice(starts[t], starts[t] + steps[t])
        path[rows] = np.argmax(trans[prev] + suffix[rows], axis=1)
    return path


def first_seen_encoding(attr_seqs):
    """(attribute index, CSR cols, CSR indptr) of attribute lists by one
    pass over every string: a new string takes the next id."""
    index, cols, indptr = {}, [], [0]
    for attrs in attr_seqs:
        for row in attrs:
            cols += [index.setdefault(a, len(index)) for a in row]
            indptr.append(len(cols))
    return index, cols, indptr


def brute_tag_entities(chars, lexicon):
    """Greedy longest-match by literal re-scan of every candidate word. Span
    lengths count tokens, and a token may be several characters."""
    n = len(chars)
    tags = [None] * n
    i = 0
    while i < n:
        candidates = [
            (length, w)
            for w in lexicon.entries
            for length in range(1, n - i + 1)
            if "".join(chars[i : i + length]) == w
        ]
        if not candidates:
            i += 1
            continue
        length, word = max(candidates)
        etype = lexicon.entries[word]
        if length == 1:
            tags[i] = f"{etype}-S"
        else:
            span = [f"{etype}-B"] + [f"{etype}-I"] * (length - 2) + [f"{etype}-E"]
            tags[i : i + length] = span
        i += length
    return tags


def _pmi_bin_label(value):
    if value is None:
        return "PMI_NA"
    if value < 0.0:
        return "PMI<0"
    if value < 2.0:
        return "PMI0-2"
    if value < 4.0:
        return "PMI2-4"
    if value < 6.0:
        return "PMI4-6"
    return "PMI>=6"


def brute_features(chars, pos, cfg, lex):
    """Attributes of one position, written out template by template in the
    canonical order of the features module docstring: unigrams, bigrams,
    rhyme classes, entity tag, PMI bins."""
    n = len(chars)

    def char(j):
        if j < 0:
            return "<BOS>"
        if j >= n:
            return "<EOS>"
        return chars[j]

    k = cfg.k
    attrs = []
    for i in range(-k, k + 1):
        attrs.append(f"w[{i}]={char(pos + i)}")
    if cfg.use_bigrams:
        for i in range(-k, k):
            attrs.append(f"w[{i}_{i + 1}]={char(pos + i)}{char(pos + i + 1)}")
    if cfg.pronunciation is not None:
        entries = lex.rhyme_dicts[cfg.pronunciation].entries
        for i in range(-k, k + 1):
            for cls in entries.get(char(pos + i), ()):
                attrs.append(f"ry[{i}]={cls}")
    if cfg.use_words:
        tag = brute_tag_entities(chars, lex.entities)[pos]
        if tag is not None:
            attrs.append(f"ne[0]={tag}")
    if cfg.use_pmi:
        left = lex.pmi.pmi.get((chars[pos - 1], chars[pos])) if pos > 0 else None
        right = lex.pmi.pmi.get((chars[pos], chars[pos + 1])) if pos + 1 < n else None
        attrs.append(f"pmi[-1_0]={_pmi_bin_label(left)}")
        attrs.append(f"pmi[0_1]={_pmi_bin_label(right)}")
    return attrs
