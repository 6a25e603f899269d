"""Outside-in span recorder for ``eqspace``.

``install`` wraps the public functions and methods of the traced modules
from outside the package: each wrapper records a span (name, start, end,
parent span, job id, counters) and the wrapper is rebound in every
``eqspace.*`` namespace that holds the original, and methods are patched on
their classes.  Nothing under ``src/`` changes.  Spans stay in memory until
``per_layer`` turns them into metrics at the end of the run.

Layers are the package modules; ``suites`` is reported as ``check``.
``sampling`` and ``report`` are trivial and are not traced.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import types
from collections import defaultdict
from fractions import Fraction
from typing import Any, Callable, NamedTuple

LAYERS = {
    "cli": "cli",
    "fileio": "fileio",
    "suites": "check",
    "frt": "frt",
    "algebras": "algebras",
    "spaces": "spaces",
    "tensors": "tensors",
    "linalg": "linalg",
}
# Arithmetic on matrices is public API even though it is spelled as dunders.
DUNDERS = ("__mul__", "__add__", "__sub__", "__neg__")
# suites._wrap names the ev/coev rigidity checks, so it is traced as a check.
EXTRA = {"suites": ("_wrap",)}
# Helpers called once per matrix entry or index.  A span each would cost more
# than their work, and every caller is in the same layer, so their time stays
# in that layer's self time.
PER_ENTRY = {
    "fileio.parse_rational",
    "fileio.format_rational",
    "tensors.decode_index",
    "frt.gen_flat",
    "frt.gen_split",
    "frt.counit_on_word",
}

ACCOUNTING = "trace.accounting"

# Check names the command line can produce; each gets a check.<name>.s metric.
CHECK_NAMES = (
    "coev-kron-identity",
    "coev-morphism",
    "comultiplication-coassociative",
    "comultiplication-well-defined",
    "corepresentation-well-defined",
    "counit-kills-relations",
    "counit-law",
    "ev-morphism",
    "hom-equals-frt",
    "manin-relations-in-frt",
    "morphism-intertwines",
    "product-ideal-in-circle-ideal",
    "snake-identity",
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    job: str | None
    info: dict | None


def _bits(x: Any) -> int:
    if isinstance(x, Fraction):
        return max(x.numerator.bit_length(), x.denominator.bit_length())
    return abs(x).bit_length()


def _basis_bits(cells) -> int:
    return max((_bits(x) for row in cells for x in row if x), default=0)


class Recorder:
    """Holds the spans of a run; ``wrap`` makes a recording wrapper."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self.job: str | None = None
        self._seen: dict[tuple[int, int], Any] = {}

    def start_job(self, job: str) -> None:
        self.job = job
        self._seen.clear()

    def wrap(self, name: str, fn: Callable, account: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_report = importlib.import_module("eqspace.report").VerificationReport

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = Span(name, t0, clock(), parent, self.job, None)
                raise
            finally:
                stack.pop()
            t1 = clock()
            info = account(self, args, result) if account else None
            if isinstance(result, is_report):
                info = dict(info or (), check=result.name)
            spans[idx] = Span(name, t0, t1, parent, self.job, info)
            if account:
                spans.append(Span(ACCOUNTING, t1, clock(), parent, self.job, None))
            return result

        return functools.update_wrapper(wrapper, fn)

    def seen(self, key: tuple[int, int], obj: Any) -> bool:
        """True when key was seen before in this job (obj is kept alive)."""
        if key in self._seen:
            return True
        self._seen[key] = obj
        return False


# ------------------------------------------------------------ counters


def _elimination(rows_in: int, cols: int, rank: int, basis) -> dict:
    return {"rows": rows_in, "cols": cols, "rank": rank, "bits": _basis_bits(basis.cells)}


def _account_from_rows(rec, args, result):
    # args: (cls, ambient_dim, rows); rows were made a sequence before the call.
    return _elimination(len(args[2]), args[1], result.dim, result.basis)


def _account_rref(rec, args, result):
    m = args[0]
    return _elimination(m.rows, m.cols, result.rows, result)


def _account_kernel(rec, args, result):
    m = args[0]
    return _elimination(m.rows, m.cols, m.cols - result.dim, result.basis)


def _account_kronecker(rec, args, result):
    return {"cells": result.rows * result.cols}


def _account_boxtimes_degree(rec, args, result):
    return {"cells": result.rows * result.cols}


def _account_ideal_component(rec, args, result):
    algebra, n = args[0], args[1]
    return {"hit": rec.seen((id(algebra), n), algebra)}


def _account_dumps(rec, args, result):
    return {"bytes": len(result.encode("utf-8"))}


ACCOUNTS = {
    "linalg.Subspace.from_rows": _account_from_rows,
    "linalg.rref": _account_rref,
    "linalg.kernel": _account_kernel,
    "linalg.kronecker": _account_kronecker,
    "spaces.boxtimes_degree": _account_boxtimes_degree,
    "algebras.PresentedAlgebra.ideal_component": _account_ideal_component,
    "fileio.dumps_canonical": _account_dumps,
}


def _rows_as_sequence(traced: Callable) -> Callable:
    """Subspace.from_rows takes any iterable; its counter needs a sequence.

    The rows are listed before the span opens: producing them is the
    caller's work.
    """

    def from_rows(cls, ambient_dim, rows):
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        return traced(cls, ambient_dim, rows)

    return from_rows


# ------------------------------------------------------------ installation


def _targets(module: types.ModuleType, short: str):
    """(span name, owner, attribute, function, kind) for each traced callable."""
    layer = LAYERS[short]
    extra = EXTRA.get(short, ())
    for attr, obj in list(vars(module).items()):
        if isinstance(obj, types.FunctionType) and obj.__module__ == module.__name__:
            if not attr.startswith("_") or attr in extra:
                yield f"{layer}.{attr}", module, attr, obj, "function"
        elif isinstance(obj, type) and obj.__module__ == module.__name__:
            for mattr, mobj in list(vars(obj).items()):
                if mattr.startswith("_") and mattr not in DUNDERS:
                    continue
                name = f"{layer}.{obj.__name__}.{mattr}"
                if isinstance(mobj, types.FunctionType):
                    yield name, obj, mattr, mobj, "function"
                elif isinstance(mobj, classmethod):
                    yield name, obj, mattr, mobj.__func__, "classmethod"


def install(rec: Recorder) -> None:
    """Wrap every traced callable of the imported eqspace package."""
    modules = {short: importlib.import_module(f"eqspace.{short}") for short in LAYERS}
    replaced: dict[int, Callable] = {}
    for short, module in modules.items():
        for name, owner, attr, fn, kind in _targets(module, short):
            if name in PER_ENTRY:
                continue
            wrapper = rec.wrap(name, fn, ACCOUNTS.get(name))
            if name == "linalg.Subspace.from_rows":
                wrapper = _rows_as_sequence(wrapper)
            if owner is module:
                replaced[id(fn)] = wrapper
            elif kind == "classmethod":
                setattr(owner, attr, classmethod(wrapper))
            else:
                setattr(owner, attr, wrapper)
    # Rebind module-level functions wherever a module imported them by name.
    for modname, module in list(sys.modules.items()):
        if modname == "eqspace" or modname.startswith("eqspace."):
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in replaced:
                    setattr(module, attr, replaced[id(obj)])


# ------------------------------------------------------------ analysis


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(idx, ())):
            a, b = max(a, s.start), min(b, s.end)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s.end - s.start) - covered)
    return out


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


FROM_ROWS = ("linalg.Subspace.from_rows", "linalg.rref", "linalg.kernel", "linalg.column_space")
REDUCE = ("linalg.Subspace.reduce_vector", "linalg.Subspace.contains_vector")


def per_layer(spans: list[Span], job_wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    job_wall_s is the summed wall time of the traced jobs, measured around
    each in-process ``cli.main`` call.
    """
    selfs = self_times(spans)
    by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layer_self: dict[str, float] = defaultdict(float)
    check_s: dict[str, float] = defaultdict(float)
    rows = cells = rank = ambient = bits = kron_cells = box_cells = 0
    hits = byte_count = 0
    for s, self_s in zip(spans, selfs):
        by_name[s.name] += self_s
        calls[s.name] += 1
        layer_self[layer_of(s.name)] += self_s
        info = s.info
        if not info:
            continue
        if "rows" in info:
            rows += info["rows"]
            cells += info["rows"] * info["cols"]
            rank += info["rank"]
            ambient = max(ambient, info["cols"])
            bits = max(bits, info["bits"])
        if "check" in info:
            check_s[info["check"]] += s.end - s.start
        if s.name == "linalg.kronecker":
            kron_cells += info["cells"]
        elif s.name == "spaces.boxtimes_degree":
            box_cells += info["cells"]
        elif "hit" in info:
            hits += info["hit"]
        elif "bytes" in info:
            byte_count += info["bytes"]

    def total(*names: str) -> float:
        return sum(by_name[n] for n in names)

    ideal_calls = calls["algebras.PresentedAlgebra.ideal_component"]
    m: dict[str, float] = {
        "linalg.from_rows.calls": sum(calls[n] for n in FROM_ROWS[:3]),
        "linalg.from_rows.self_s": total(*FROM_ROWS),
        "linalg.from_rows.rows_in": rows,
        "linalg.from_rows.cells_in": cells,
        "linalg.from_rows.useful_ratio": rank / rows if rows else 0.0,
        "linalg.ambient_max": ambient,
        "linalg.max_bits": bits,
        "linalg.kronecker.calls": calls["linalg.kronecker"],
        "linalg.kronecker.self_s": total("linalg.kronecker"),
        "linalg.kronecker.cells_out": kron_cells,
        "linalg.reduce_vector.calls": calls["linalg.Subspace.reduce_vector"],
        "linalg.reduce_vector.self_s": total(*REDUCE),
        "linalg.matmul.self_s": total("linalg.Matrix.__mul__"),
        "tensors.embed_at.calls": calls["tensors.embed_at"],
        "tensors.embed_at.self_s": total("tensors.embed_at"),
        "tensors.phi_table.self_s": total("tensors.phi_table"),
        "spaces.boxtimes_degree.self_s": total("spaces.boxtimes_degree"),
        "spaces.boxtimes_degree.cells_out": box_cells,
        "spaces.check_morphism.self_s": total("spaces.check_morphism"),
        "algebras.ideal_component.calls": ideal_calls,
        "algebras.ideal_component.self_s": total("algebras.PresentedAlgebra.ideal_component"),
        "algebras.ideal_component.hit_ratio": hits / ideal_calls if ideal_calls else 0.0,
        "frt.frt_relations.self_s": total("frt.frt_relations"),
        "frt.on_vector.self_s": total("frt.Comultiplication.on_vector"),
    }
    for name in CHECK_NAMES:
        m[f"check.{name}.s"] = check_s.get(name, 0.0)
    m["fileio.read_space.self_s"] = total("fileio.read_space")
    m["fileio.write_space.self_s"] = total("fileio.write_space")
    m["fileio.bytes_out"] = byte_count
    for layer in LAYERS.values():
        m[f"{layer}.self_s"] = layer_self.get(layer, 0.0)
    harness = layer_self.get("trace", 0.0)
    m["trace.self_s"] = harness
    m["trace.wall_s"] = job_wall_s
    m["trace.coverage_ratio"] = (
        sum(layer_self.get(layer, 0.0) for layer in LAYERS.values()) / (job_wall_s - harness)
    )
    return m
