"""Per-layer spans recorded from outside the program.

`install()` wraps the public functions of precis's layers at every module
attribute that refers to them (`from .linalg import sym_eigen` makes a
second reference in the importing module, and that is the one its callers
look up), so no file under src/ changes. Spans are kept in memory as
(name, start, end, parent) and reduced to per-layer totals at the end.

A layer's self time is its span's duration minus the durations of the
spans it directly contains. `errors` counts exceptions that pass through a
span; the program may catch them further up.
"""
from __future__ import annotations

import functools
import importlib
import pkgutil
import time
from collections import defaultdict

# (module, function, layer name); a function that no longer exists is skipped
# and its layer reports zero calls.
LAYERS = (
    ("precis.panel", "parse_panel", "panel.parse"),
    ("precis.linalg", "sample_covariance", "linalg.sample_covariance"),
    ("precis.linalg", "sym_eigen", "linalg.sym_eigen"),
    ("precis.linalg", "invert_spd", "linalg.invert_spd"),
    ("precis.linalg", "condition_number", "linalg.condition_number"),
    ("precis.estimators", "penalized_qml", "estimators.penalized_qml"),
    ("precis.estimators", "tune_rho", "estimators.tune_rho"),
    ("precis.estimators", "ledoit_wolf_intensity", "estimators.ledoit_wolf_intensity"),
    ("precis.estimators", "ledoit_wolf", "estimators.ledoit_wolf"),
    ("precis.estimators", "pca_precision", "estimators.pca_precision"),
    ("precis.estimators", "sample_precision", "estimators.sample_precision"),
    ("precis.portfolio", "no_short_mvp", "portfolio.no_short_mvp"),
    ("precis.portfolio", "mvp_weights", "portfolio.mvp_weights"),
    ("precis.backtest", "run_rolling", "backtest.run_rolling"),
    ("precis.backtest", "build_report", "backtest.build_report"),
    ("precis.cli", "load_config", "cli.load_config"),
    ("precis.cli", "atomic_write", "cli.write"),
)

QML = "estimators.penalized_qml"


def _arg(args, kwargs, position: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[position] if len(args) > position else None


def _qml_kind(args, kwargs):
    return getattr(_arg(args, kwargs, 2, "penalty"), "kind", None)


def _qml_counts(args, kwargs, estimate) -> dict[str, int]:
    from precis.estimators import SolverOptions

    opts = _arg(args, kwargs, 3, "opts") or SolverOptions()
    converged = bool(estimate.converged)
    return {
        "iters": int(estimate.iterations),
        "converged": int(converged),
        "hit_cap": int(not converged and estimate.iterations >= opts.max_iter),
    }


def _qp_counts(args, kwargs, result) -> dict[str, int]:
    return {"iters": int(result[1].iterations)}


# layer -> (label for a sub-layer, counts read from the return value)
HOOKS = {
    QML: (_qml_kind, _qml_counts),
    "portfolio.no_short_mvp": (None, _qp_counts),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, label, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[tuple[str, str | None], dict[str, int]] = defaultdict(
            lambda: defaultdict(int)
        )

    def wrap(self, name: str, fn):
        label_of, counts_of = HOOKS.get(name, (None, None))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = label_of(args, kwargs) if label_of else None
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([name, label, time.perf_counter(), None, parent])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name, label]["errors"] += 1
                raise
            finally:
                self.stack.pop()
                self.spans[idx][3] = time.perf_counter()
            if counts_of:
                for key, value in counts_of(args, kwargs, result).items():
                    self.counts[name, label][key] += value
            return result

        return traced

    def summary(self) -> dict:
        """Per layer (and per `layer.label`): calls, self_s and the counters.

        Also the duration of every penalized solve, in ms, in call order.
        """
        child_s = defaultdict(float)
        for name, label, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        layers: dict[str, dict] = {}

        def bucket(key: str) -> dict:
            return layers.setdefault(key, {"calls": 0, "self_s": 0.0})

        solve_ms = []
        for idx, (name, label, start, end, _) in enumerate(self.spans):
            keys = [name] + ([f"{name}.{label}"] if label else [])
            for key in keys:
                entry = bucket(key)
                entry["calls"] += 1
                entry["self_s"] += end - start - child_s[idx]
            if name == QML:
                solve_ms.append(1e3 * (end - start))
        for (name, label), counts in self.counts.items():
            keys = [name] + ([f"{name}.{label}"] if label else [])
            for key in keys:
                entry = bucket(key)
                for counter, value in counts.items():
                    entry[counter] = entry.get(counter, 0) + value
        return {"layers": layers, "solve_ms": solve_ms}


def install() -> Tracer:
    """Wrap every layer function at each precis module attribute bound to it."""
    import precis

    modules = [precis] + [
        importlib.import_module(info.name)
        for info in pkgutil.iter_modules(precis.__path__, "precis.")
    ]
    tracer = Tracer()
    for module_name, func_name, layer in LAYERS:
        try:
            original = getattr(importlib.import_module(module_name), func_name, None)
        except ModuleNotFoundError:
            continue
        if original is None:
            continue
        traced = tracer.wrap(layer, original)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, traced)
    return tracer
