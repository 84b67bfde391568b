"""Per-layer spans and counters for pseudosim, recorded from outside the package.

The tracer wraps the public functions and public methods of each
``pseudosim.<module>`` and rebinds every module-level name that refers to one
of them, so ``from .transforms import pseudo_similarity`` inside
``experiments`` is traced as well as ``transforms.pseudo_similarity``.  Calls
into ``numpy.linalg`` and ``scipy.linalg`` form the ``kernel`` layer.

Each wrapper opens a span on entry and closes it on exit.  A span's self time
is its duration minus the durations of the spans it directly caused, so the
self times of all layers add up to the traced wall time.  Spans are folded
into per-layer and per-function totals as they close instead of being kept
one by one: a theorem-small pass opens about a hundred thousand of them.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULE_LAYERS = ("rng", "ensembles", "linalg", "transforms", "eigen", "oracles",
                 "interlace", "experiments", "reports", "cli")
LAYERS = MODULE_LAYERS + ("kernel", "import")

#: factor from real to complex floating-point operations (one complex
#: multiply-add is four real multiplies and four real adds, against two)
_COMPLEX_FACTOR = 4


def _mn(a):
    """(rows, cols, batch count) of a possibly stacked matrix argument."""
    shape = getattr(a, "shape", None)
    if shape is None or len(shape) < 2:
        size = getattr(a, "size", 1)
        return size, 1, 1
    batch = 1
    for d in shape[:-2]:
        batch *= d
    return shape[-2], shape[-1], batch


def _svd_flops(m, n, values_only=False, full=False):
    big, k = max(m, n), min(m, n)
    if values_only:
        return 4 * big * k * k - 4 * k ** 3 / 3
    if full:
        return 4 * big * big * k + 8 * big * k * k + 9 * k ** 3
    return 14 * big * k * k + 8 * k ** 3


def _qr_flops(m, n, form_q=True):
    k = min(m, n)
    factor = 2 * max(m, n) * k * k - 2 * k ** 3 / 3
    return factor + (2 * m * k * k - 2 * k ** 3 / 3 if form_q else 0)


def _kernel_flops(name, args, kwargs):
    """Dense operation count from argument shapes (standard LAPACK counts,
    Golub and Van Loan, Matrix Computations, 4th ed., tables 5.5.1, 8.6.1)."""
    a = args[0] if args else next(iter(kwargs.values()), None)
    m, n, batch = _mn(a)
    if name == "svd":
        flops = _svd_flops(m, n, values_only=not kwargs.get("compute_uv", True),
                           full=kwargs.get("full_matrices", True))
    elif name == "qr":
        mode = kwargs.get("mode", args[1] if len(args) > 1 and isinstance(args[1], str) else "")
        flops = _qr_flops(m, n, form_q=mode != "r")
    elif name in ("eigvals", "eig"):
        flops = (10 if name == "eigvals" else 25) * n ** 3
    elif name in ("eigvalsh", "eigh"):
        flops = (4 * n ** 3 / 3) if name == "eigvalsh" else 9 * n ** 3
    elif name in ("det", "slogdet"):
        flops = 2 * n ** 3 / 3
    elif name == "cholesky":
        flops = n ** 3 / 3
    elif name == "inv":
        flops = 2 * n ** 3
    elif name in ("solve", "solve_triangular"):
        b = args[1] if len(args) > 1 else kwargs.get("b")
        nrhs = _mn(b)[1]
        flops = n * n * nrhs * (1 if name == "solve_triangular" else 2)
        if name == "solve":
            flops += 2 * n ** 3 / 3
    elif name in ("pinv", "lstsq", "matrix_rank"):
        flops = _svd_flops(m, n, values_only=name == "matrix_rank")
    else:  # norm: one multiply-add per entry
        flops = 2 * m * n
    dtype = getattr(a, "dtype", None)
    if dtype is not None and dtype.kind == "c":
        flops *= _COMPLEX_FACTOR
    return flops * batch


#: kernel entry points by module; every name pseudosim calls, plus the other
#: dense factorizations a later version is likely to switch to
KERNEL_FUNCTIONS = {
    "numpy.linalg": ("svd", "eigvals", "eigvalsh", "eig", "eigh", "qr", "solve", "det",
                     "slogdet", "inv", "pinv", "lstsq", "matrix_rank", "cholesky", "norm"),
    "scipy.linalg": ("svd", "eigvals", "eigvalsh", "eig", "eigh", "qr", "solve",
                     "solve_triangular", "det", "inv", "pinv", "lstsq", "cholesky", "norm"),
}
_NOT_LAPACK = frozenset({"norm"})


class Tracer:
    """Span stack plus per-layer and per-function totals for one process."""

    def __init__(self):
        self._stack: list[list] = []
        self._undo: list[tuple] = []
        self.layer_calls = Counter()
        self.layer_self = defaultdict(float)
        self.layer_errors = Counter()
        self.func_calls = Counter()
        self.func_self = defaultdict(float)
        self.counters = Counter()

    def reset(self):
        """Zero every total; wrappers keep references to these containers."""
        for totals in (self.layer_calls, self.layer_self, self.layer_errors,
                       self.func_calls, self.func_self, self.counters):
            totals.clear()

    def wrap(self, fn, layer: str, name: str, count=None):
        """``fn`` inside a span of ``layer``; ``count(args, kwargs)`` may
        return extra counter increments, taken from the arguments."""
        stack = self._stack
        layer_calls, layer_self, layer_errors = self.layer_calls, self.layer_self, self.layer_errors
        func_calls, func_self, counters = self.func_calls, self.func_self, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                counters.update(count(args, kwargs))
            frame = [layer, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                if len(stack) < 2 or stack[-2][0] != layer:
                    layer_errors[layer] += 1
                raise
            finally:
                duration = perf_counter() - start
                stack.pop()
                own = duration - frame[1]
                layer_calls[layer] += 1
                layer_self[layer] += own
                func_calls[name] += 1
                func_self[name] += own
                if stack:
                    stack[-1][1] += duration

        return traced

    def span(self, layer: str, name: str, thunk):
        """Run ``thunk()`` as one span, for work that is not a function call
        of the package, such as its import."""
        return self.wrap(thunk, layer, name)()

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        """Wrap every public function of the package and the kernel entry
        points; :meth:`uninstall` restores the original bindings."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer in MODULE_LAYERS:
            module = importlib.import_module(f"pseudosim.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self.wrap(obj, layer, f"{layer}.{attr}")
                elif inspect.isclass(obj):
                    for method_name, method in list(vars(obj).items()):
                        if not method_name.startswith("_") and inspect.isfunction(method):
                            qual = f"{layer}.{attr}.{method_name}"
                            self._set(obj, method_name,
                                      self.wrap(method, layer, qual, _RNG_WORDS.get(qual)))
        for module_name, module in list(sys.modules.items()):
            if module_name == "pseudosim" or module_name.startswith("pseudosim."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._set(module, attr, wrappers[obj])
        for module_name, names in KERNEL_FUNCTIONS.items():
            module = importlib.import_module(module_name)
            for attr in names:
                fn = getattr(module, attr, None)
                if fn is not None:
                    self._set(module, attr, self.wrap(fn, "kernel", f"kernel.{attr}",
                                                      _kernel_counter(attr)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def snapshot(self) -> dict:
        """Per-layer totals of everything recorded since :meth:`reset`;
        :func:`with_wall` adds the figures that need the traced wall time."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.layer_calls[layer]
            out[f"{layer}.self_s"] = self.layer_self[layer]
            out[f"{layer}.errors"] = self.layer_errors[layer]
        out["rng.words"] = self.counters["rng.words"]
        out["linalg.svd_calls"] = self.func_calls["linalg.svd"]
        out["linalg.as_matrix_calls"] = self.func_calls["linalg.as_matrix"]
        out["kernel.svd_calls"] = self.func_calls["kernel.svd"]
        out["kernel.eigvals_calls"] = self.func_calls["kernel.eigvals"]
        out["kernel.qr_calls"] = self.func_calls["kernel.qr"]
        out["kernel.lapack_s"] = sum(t for name, t in self.func_self.items()
                                     if name.startswith("kernel.")
                                     and name[len("kernel."):] not in _NOT_LAPACK)
        out["kernel.flops"] = self.counters["kernel.flops"]
        out["oracles.polynomial_roots.self_s"] = self.func_self["oracles.polynomial_roots"]
        return out


def with_wall(layers: dict, wall_s: float) -> dict:
    """``layers`` plus each layer's share of the traced wall time and the
    part of that wall time no span covers."""
    out = dict(layers)
    for layer in LAYERS:
        out[f"{layer}.share"] = layers[f"{layer}.self_s"] / wall_s
    out["trace.unattributed_s"] = wall_s - sum(layers[f"{layer}.self_s"] for layer in LAYERS)
    return out


def _uint64s_words(args, kwargs):
    return {"rng.words": args[1] if len(args) > 1 else kwargs["count"]}


#: SplitMix64 draws every word through one of these two methods
_RNG_WORDS = {
    "rng.SplitMix64.uint64s": _uint64s_words,
    "rng.SplitMix64.next_uint64": lambda args, kwargs: {"rng.words": 1},
}


def _kernel_counter(name):
    def count(args, kwargs):
        return {"kernel.flops": _kernel_flops(name, args, kwargs)}
    return count
