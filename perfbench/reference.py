"""Fixed reference computation that operation and set-up times are divided by.

On a shared host the speed of identical work changes by tens of percent
within seconds and by up to half for minutes at a time. The benchmark
times this computation just before and after every operation and set-up,
and reports their wall times in units of it. The computation never calls
the program, so no change to the program can change it.

Its parts follow the program's mix: scalar complex arithmetic in
interpreted Python, recursive evaluation of an expression tree over a
NumPy grid, ``np.roots`` on small polynomials, element-wise NumPy on
grid-sized arrays and a streaming pass over an array larger than the
caches. No part alone tracked the machine's speed clearly better than
their sum, and some did much worse. The whole takes 0.08-0.14 s on the
machine the benchmark was defined on, depending on the moment.
"""

from __future__ import annotations

import time

import numpy as np

# Set-up seconds are reported as they would be on a machine that runs the
# reference computation in this time.
NOMINAL_S = 0.1


class _Node:
    __slots__ = ("op", "kids", "value")

    def __init__(self, op: str, kids=(), value: float = 0.0):
        self.op, self.kids, self.value = op, kids, value


def _tree(depth: int) -> _Node:
    if depth == 0:
        return _Node("const", value=1.0)
    op = "add" if depth % 2 else "mul"
    return _Node(op, (_tree(depth - 1), _Node("const", value=0.5)))


def _evaluate(node: _Node, x: np.ndarray):
    if node.op == "const":
        return node.value
    left = _evaluate(node.kids[0], x)
    right = _evaluate(node.kids[1], x)
    return left + right if node.op == "add" else left * right * x


_TREE = _tree(12)
_GRID = np.linspace(0.1, 0.2, 512)
_STREAM = np.linspace(0.0, 1.0, 1_000_000)
_STREAM_OUT = np.empty_like(_STREAM)


def _scalar_python() -> complex:
    acc = 0j
    z = 0.3 + 0.4j
    for i in range(40_000):
        z = z * (0.999 + 0.001j) + 1e-4 * i
        if abs(z.real) > abs(z.imag):
            acc += z / (1.0 + abs(z))
    return acc


def _tree_walk() -> float:
    return sum(float(_evaluate(_TREE, _GRID).sum()) for _ in range(900))


def _small_roots() -> complex:
    coeffs = np.linspace(1.0, 2.0, 7)
    return sum(np.roots(coeffs + 1e-3 * i).sum() for i in range(300))


def _elementwise() -> float:
    x = np.linspace(-5.0, 5.0, 2048)
    return sum(float((np.exp(-x * x / (1.0 + 1e-3 * i)) * np.cos(x)
                      + x ** 3).sum()) for i in range(150))


def _stream() -> float:
    acc = 0.0
    for i in range(12):
        np.multiply(_STREAM, 1.0 + 1e-4 * i, out=_STREAM_OUT)
        acc += float(_STREAM_OUT.sum())
    return acc


PARTS = (_scalar_python, _tree_walk, _small_roots, _elementwise, _stream)


def time_reference() -> float:
    """Wall seconds of one pass over every part."""
    start = time.perf_counter()
    for part in PARTS:
        part()
    return time.perf_counter() - start
