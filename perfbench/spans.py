"""In-memory spans around qlebath's layers, recorded from outside the package.

``Tracer.install`` replaces each layer's public functions, as the module that
calls them sees them, with wrappers that record a span (run id, parent,
layer, function, start, end, whether it raised).  Hot inner callables -- the
quadrature integrand closure, ``scipy.integrate.quad`` and the drive signals
-- are only counted, not spanned.  ``uninstall`` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

LAYERS = ("config", "kernels", "response", "thermo", "diffusion", "motion",
          "bath_sim", "cli")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.run = None
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._patched = []

    # ---- recording -------------------------------------------------------

    def wrap(self, layer: str, fn, failed=None):
        """fn wrapped in a span; ``failed(result)`` marks a returned error."""
        spans, stack = self.spans, self.stack
        name = getattr(fn, "__name__", repr(fn))

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(spans), "parent": stack[-1] if stack else None,
                    "run": self.run, "layer": layer, "name": name,
                    "start": time.perf_counter(), "end": None, "error": False}
            spans.append(span)
            stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
                if failed is not None and failed(result):
                    span["error"] = True
                return result
            except BaseException:
                span["error"] = True
                raise
            finally:
                stack.pop()
                span["end"] = time.perf_counter()
        return traced

    def _counted(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _quad(self, layer: str, quad):
        counts, maxima = self.counts, self.maxima

        def traced_quad(*args, **kwargs):
            res = quad(*args, **kwargs)
            counts[f"{layer}.quad_calls"] += 1
            if len(res) > 2 and isinstance(res[2], dict):
                counts[f"{layer}.quad_neval"] += res[2].get("neval", 0)
            # quad stops at max(epsabs, epsrel |value|): that is the request.
            requested = max(kwargs.get("epsabs", 1.49e-8),
                            kwargs.get("epsrel", 1.49e-8) * abs(res[0]))
            if requested > 0.0:
                maxima[f"{layer}.err_ratio_max"] = max(
                    maxima[f"{layer}.err_ratio_max"], res[1] / requested)
            return res
        return traced_quad

    def _closure_factory(self, factory):
        counted = self._counted

        @functools.wraps(factory)
        def make(*args, **kwargs):
            return counted("response.closure_evals", factory(*args, **kwargs))
        return make

    def _signal_factory(self, factory):
        counted = self._counted

        @functools.wraps(factory)
        def make(*args, **kwargs):
            sig = factory(*args, **kwargs)
            return type(sig)(
                f=counted("motion.force_evals", sig.f),
                fdot=counted("motion.force_evals", sig.fdot),
                fddot=(None if sig.fddot is None
                       else counted("motion.force_evals", sig.fddot)),
                name=sig.name)
        return make

    # ---- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span(self, layer: str, owner, *attrs):
        for attr in attrs:
            self._patch(owner, attr, self.wrap(layer, getattr(owner, attr)))

    def install(self):
        from qlebath import (bath_sim, cli, config, diffusion, kernels, motion,
                             thermo)

        self._span("config", cli, "load_config")
        self._span("config", config.RunConfig, "kernel", "model")
        self._span("kernels", config, "kernel_from_json")
        for cls in (kernels.OhmicKernel, kernels.SingleRelaxationKernel,
                    kernels.BlackbodyKernel):
            self._span("kernels", cls, "mu_tilde", "re_mu_real_axis")
        self._span("response", cli, "susceptibility", "poles_and_causality")
        for module in (thermo, diffusion):
            self._patch(module, "denominator_closure",
                        self.wrap("response", self._closure_factory(
                            module.denominator_closure)))
            self._patch(module, "quad", self._quad(module.__name__.split(".")[-1],
                                                   module.quad))
        self._span("thermo", thermo, "oscillator_free_energy",
                   "free_energy_shift", "coupled_free_energy", "welton_energy",
                   "welton_closed_form", "thermo_derivatives",
                   "fit_quadratic_coefficient", "bbr_shift_closed_form")
        self._span("diffusion", diffusion, "msd_curve", "msd", "regime_tag",
                   "report_from_curve")
        for name in ("zero_force", "constant_with_ramp", "sinusoid",
                     "gaussian_pulse"):
            self._patch(motion, name, self._signal_factory(getattr(motion, name)))
        self._span("motion", motion, "integrate_point_limit",
                   "integrate_third_order", "bounded_al_trajectory")
        self._span("bath_sim", bath_sim, "discretize_bath",
                   "simulate_classical_io", "dump_ensemble", "recurrence_time",
                   "force_autocorrelation_check", "ensemble_msd")

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


# ---- derivation ----------------------------------------------------------

def layer_table(spans) -> dict:
    """calls, busy_s, self_s and errors per layer from a list of spans.

    self_s is a span's duration minus the time its direct children cover;
    busy_s and errors count only spans with no ancestor of the same layer, so
    a layer calling itself is not counted twice.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    table = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0}
             for layer in LAYERS}
    for s in spans:
        row = table.setdefault(s["layer"], {"calls": 0, "busy_s": 0.0,
                                            "self_s": 0.0, "errors": 0})
        duration = s["end"] - s["start"]
        row["calls"] += 1
        row["self_s"] += duration - child_time[s["id"]]
        parent = by_id.get(s["parent"])
        while parent is not None and parent["layer"] != s["layer"]:
            parent = by_id.get(parent["parent"])
        if parent is None:
            row["busy_s"] += duration
            row["errors"] += int(s["error"])
    return table


def busy_by_name(spans, names) -> float:
    """Total duration of the spans whose function name is in ``names``."""
    return sum(s["end"] - s["start"] for s in spans if s["name"] in names)
