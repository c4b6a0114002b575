"""Call-stack tracer for biexp, installed from outside the package.

Each wrapped function keeps three aggregates -- calls, total time and self
time (total minus the time spent in wrapped callees) -- instead of one span
per call.  Only the benchmark's child processes for traced runs install it.
"""

from __future__ import annotations

import sys
import time

from layers import LAYERS


class Tracer:
    def __init__(self):
        self.stats = {}      # "layer.function" -> [calls, total_s, self_s]
        self.extra = {}      # extra work counts read at the boundaries
        self.missing = []    # wrapped names the package no longer has
        self._stack = [0.0]  # time spent in wrapped callees, per open frame
        self._undo = []      # (namespace, attribute, original) to restore

    def _wrap(self, name, fn, hook=None):
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stack[-1] += dt
                st[0] += 1
                st[1] += dt
                st[2] += dt - inner
            if hook is not None:
                hook(args, kwargs, res)
            return res

        traced.__wrapped__ = fn
        return traced

    def _count(self, key, n=1):
        self.extra[key] = self.extra.get(key, 0) + n

    def _hooks(self):
        def jratio(args, kwargs, res):
            x = abs(args[1] if len(args) > 1 else kwargs["x"])
            band = "x_le9" if x <= 9.0 else ("x_9_50" if x <= 50.0 else "x_gt50")
            self._count("specfun.bessel_j_ratio.calls." + band)

        def grid(args, kwargs, res):
            xs = args[1] if len(args) > 1 else kwargs["xs"]
            self._count("biortho.dunkl_kernel_grid.nodes", len(xs))

        def bessel_product(args, kwargs, res):
            # BesselProductResult; read defensively, the type may change
            self._count("quad.integrate_bessel_product.cells", getattr(res, "cells", 0))
            self._count("quad.integrate_bessel_product.converged",
                        int(bool(getattr(res, "converged", False))))

        return {"specfun.bessel_j_ratio": jratio,
                "biortho.dunkl_kernel_grid": grid,
                "quad.integrate_bessel_product": bessel_product}

    def install(self) -> None:
        self.missing = []
        mods = [m for n, m in list(sys.modules.items())
                if (n == "biexp" or n.startswith("biexp.")) and m is not None]
        hooks = self._hooks()
        for layer, spec in LAYERS.items():
            home = sys.modules.get(f"biexp.{layer}")
            for fname in spec["functions"]:
                name = f"{layer}.{fname}"
                if "." in fname:
                    cls_name, meth = fname.split(".")
                    cls = getattr(home, cls_name, None)
                    orig = vars(cls).get(meth) if cls is not None else None
                    if orig is None:
                        self.missing.append(name)
                        continue
                    self._undo.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(name, orig, hooks.get(name)))
                    continue
                orig = getattr(home, fname, None)
                if orig is None:
                    self.missing.append(name)
                    continue
                wrapped = self._wrap(name, orig, hooks.get(name))
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._undo.append((m, attr, orig))
                            setattr(m, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def report(self) -> dict:
        return {"stats": self.stats, "extra": self.extra, "missing": self.missing}
