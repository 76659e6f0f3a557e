"""Per-layer spans recorded from outside the package.

A :class:`Tracer` wraps chosen public functions of ``hilbert_k3`` and records
one span per call: name, start, end, parent span and request id.  Spans stay
in memory until the run ends.  A name re-exported by ``from .x import y`` is
bound in several modules, so every module attribute that holds the original
function is replaced; a name that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import statistics
import sys
import time

# Functions timed by the traced run, as "<module>.<attribute path>".
TARGETS = (
    "numkernel.sum_series",
    "hilbert_theta.theta_batch",
    "hilbert_theta.mueller_forms",
    "moduli.moduli_XYZ",
    "moduli.newton_invert",
    "moduli.continuation_invert",
    "moduli.match_projective_maps",
    "lattice.j_map",
    "pde.eliminate_to_restricted_ode",
    "pde.verify_mixed_jet_compatibility",
    "pde._JetReducer.__init__",
    "polynomials.SparsePoly.divmod_exact",
    "pde.taylor_basis",
    "pde.estimate_singular_distance",
    "klein.verify_klein_relation",
    "diffops.series_solve",
    "periods.verify_clausen_and_S",
    "periods.verify_symmetric_square",
    "periods.schwarz_map",
    "periods.verify_diagonal_inverse_identity",
    "elliptic.jacobi_theta",
    "elliptic.eisenstein_and_J",
    "fibrations.classify_fibers",
    "verify.run_suite",
)

# Kernels whose median call time is reported as well.
MEDIAN_TARGETS = ("hilbert_theta.theta_batch", "moduli.newton_invert", "pde.taylor_basis")

SUITES = ("klein", "mueller", "main-theorem", "transformations", "factorization",
          "riemann-scheme", "clausen", "j-theorem", "pde-restriction", "quadric",
          "developing-map", "monodromy", "fibers")

PACKAGE = "hilbert_k3"


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if metric.endswith(("_ratio", "_per_solve")):
        return "ratio"
    if metric.endswith(("_s", ".s")):
        return "s"
    if metric.endswith("ms_p50"):
        return "ms"
    return "count"


def _span_name(target: str) -> str:
    return target[: -len(".__init__")] if target.endswith(".__init__") else target


def _annotate(target: str, result):
    """Extra facts about one call, taken from its result."""
    if target == "moduli.newton_invert":
        return {"iterations": getattr(result, "iterations", 0)}
    if target == "polynomials.SparsePoly.divmod_exact":
        return {"exact": result[1].is_zero()}
    return None


class Tracer:
    """Span recorder.  Wrappers record only while ``active`` is true, so
    reference computations around the timed region stay untraced."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, request, info]
        self.absent: list[str] = []
        self.active = False
        self.request = None
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -------------------------------------------------------- installation

    def install(self, targets=TARGETS) -> None:
        modules = _package_modules()
        for target in targets:
            mod_name, *path = target.split(".")
            owner = modules.get(f"{PACKAGE}.{mod_name}")
            for attr in path[:-1]:
                owner = getattr(owner, attr, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if not callable(original):
                self.absent.append(target)
                continue
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._rebind(owner, path[-1], wrapper)
                continue
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def _rebind(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def _wrap(self, target: str, fn):
        name = _span_name(target)
        per_suite = target == "verify.run_suite"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            suite = (args[0] if args else kwargs.get("name")) if per_suite else None
            span_name = f"{name}.{suite}" if suite else name
            span = [span_name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else -1, self.request, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[5] = {"error": type(exc).__name__}
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            span[5] = _annotate(target, result)
            return result

        return wrapper

    # ------------------------------------------------------------- output

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, request, info in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "request": request,
                                     "info": info}) + "\n")

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers from the recorded spans.  Self time is a span's
        duration minus the time its direct child spans cover."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start

        def ancestors(i):
            i = spans[i][3]
            while i >= 0:
                yield i
                i = spans[i][3]

        by_name: dict[str, list[int]] = {}
        for i, span in enumerate(spans):
            by_name.setdefault(span[0], []).append(i)

        out: dict[str, float] = {}
        for target in TARGETS:
            if target in self.absent:
                continue
            name = _span_name(target)
            if target == "verify.run_suite":
                for suite in SUITES:
                    idx = by_name.get(f"{name}.{suite}", [])
                    out[f"{name}.{suite}.s"] = sum(spans[i][2] - spans[i][1] for i in idx)
                continue
            idx = by_name.get(name, [])
            if target == "pde._JetReducer.__init__":
                out[f"{name}.constructions"] = len(idx)
                continue
            durations = [spans[i][2] - spans[i][1] for i in idx]
            out[f"{name}.calls"] = len(idx)
            out[f"{name}.total_s"] = sum(
                spans[i][2] - spans[i][1] for i in idx
                if all(spans[a][0] != name for a in ancestors(i)))
            out[f"{name}.self_s"] = sum(d - child_time[i] for d, i in zip(durations, idx))
            if name in MEDIAN_TARGETS:
                out[f"{name}.ms_p50"] = 1000 * statistics.median(durations) if durations else 0.0
            infos = [spans[i][5] or {} for i in idx]
            if target == "polynomials.SparsePoly.divmod_exact":
                out[f"{name}.exact_ratio"] = (
                    sum(1 for info in infos if info.get("exact")) / len(idx) if idx else 0.0)
            if target == "moduli.newton_invert":
                out[f"{name}.iterations"] = sum(info.get("iterations", 0) for info in infos)
                out[f"{name}.failed"] = sum(1 for info in infos if "error" in info)
                inside = sum(1 for i in by_name.get("hilbert_theta.theta_batch", [])
                             if any(spans[a][0] == name for a in ancestors(i)))
                out[f"{name}.theta_calls_per_solve"] = inside / len(idx) if idx else 0.0
        return out

    def errors(self) -> dict[str, int]:
        """Exception type counts per span name."""
        out: dict[str, int] = {}
        for name, _, _, _, _, info in self.spans:
            if info and "error" in info:
                key = f"{name}:{info['error']}"
                out[key] = out.get(key, 0) + 1
        return out


def _package_modules() -> dict[str, object]:
    package = importlib.import_module(PACKAGE)
    for info in pkgutil.iter_modules(package.__path__, PACKAGE + "."):
        importlib.import_module(info.name)
    return {name: mod for name, mod in sys.modules.items()
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))}
