"""Per-node score files.

Self-describing plain text: '#'-prefixed header lines carrying method,
parameters and seed, followed by one "node score" line per node. Scores are
written with shortest round-trip repr, so rereading reproduces the exact
floats and identical runs produce byte-identical files.
"""

from __future__ import annotations

import ast
import math

import numpy as np

from .deterministic import CentralityVector


def write_scores(path, vec: CentralityVector) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# method {vec.method}\n")
        params = " ".join(f"{k}={vec.params[k]!r}" for k in sorted(vec.params))
        fh.write(f"# params {params}\n")
        fh.write(f"# seed {'none' if vec.seed is None else vec.seed}\n")
        fh.write(f"# nodes {len(vec.scores)}\n")
        for i, s in enumerate(vec.scores):
            fh.write(f"{i} {float(s)!r}\n")


def _header_int(path, lineno: int, key: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{path}: line {lineno}: # {key} is not an integer: {text!r}") from None


def read_scores(path) -> CentralityVector:
    """Parse a score file written by write_scores.

    Raises ValueError when node ids are duplicated or leave a gap, when their
    count disagrees with the ``# nodes`` header, when a score or a float
    parameter is not finite (nan or inf), or when a line is malformed.
    """
    method = ""
    params: dict = {}
    seed = None
    header_nodes = None
    entries = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                tokens = line[1:].split()
                if not tokens:
                    continue
                key, rest = tokens[0], tokens[1:]
                if key == "method" and rest:
                    method = rest[0]
                elif key == "seed" and rest:
                    seed = None if rest[0] == "none" else _header_int(path, lineno, key, rest[0])
                elif key == "nodes" and rest:
                    header_nodes = _header_int(path, lineno, key, rest[0])
                elif key == "params":
                    for item in rest:
                        if "=" in item:
                            k, v = item.split("=", 1)
                            try:
                                value = ast.literal_eval(v)
                                if isinstance(value, float) and not math.isfinite(value):
                                    raise ValueError
                            except (ValueError, SyntaxError):
                                raise ValueError(
                                    f"{path}: line {lineno}: bad parameter value {item!r}"
                                ) from None
                            params[k] = value
                continue
            try:
                node_str, score_str = line.split()
                node, score = int(node_str), float(score_str)
            except ValueError:
                raise ValueError(
                    f"{path}: line {lineno}: expected '<node> <score>', got {line!r}"
                ) from None
            if not math.isfinite(score):
                raise ValueError(f"{path}: line {lineno}: score is not finite: {score_str!r}")
            if node in entries:
                raise ValueError(f"{path}: line {lineno}: duplicate node id {node}")
            entries[node] = score
    count = len(entries)
    if header_nodes is not None and header_nodes != count:
        raise ValueError(f"{path}: header declares {header_nodes} nodes, file has {count}")
    missing = [i for i in range(count) if i not in entries]
    if missing:
        raise ValueError(f"{path}: node ids are not 0..{count - 1}: id {missing[0]} is missing")
    scores = np.array([entries[i] for i in range(count)])
    return CentralityVector(scores, method=method, params=params, seed=seed)
