"""Per-layer attribution of host time from a cProfile run.

The layers are the simulator's packages under ``src/repro``.  A
function's self time (cProfile ``tottime``) goes to the layer whose
directory holds its source file; everything else -- the standard
library, builtins and this benchmark's own driver code -- is ``other``.
Calls into a layer are counted exactly, per caller, and only when the
caller sits outside that layer.
"""

from __future__ import annotations

import os

__all__ = ["LAYERS", "HOTSPOTS", "layer_of", "attribute", "metric_names"]

LAYERS = ("sim", "net", "nic", "os", "rpc", "hw", "workloads", "obs",
          "check", "tenancy", "fleet", "experiments")

#: packages that are not layers of their own, folded into the nearest
#: one: measurement into obs, model checking into check, and the
#: orchestration around experiments (job pool, control plane, fault
#: plans, the high-level API) into experiments
_FOLDED = {"metrics": "obs", "mc": "check", "exp": "experiments",
           "ctrl": "experiments", "faults": "experiments"}

#: named hot spots: a module (or subpackage) inside one layer
HOTSPOTS = {
    "net.checksum": "net/checksum.py",
    "net.crypto": "net/crypto.py",
    "net.headers": "net/headers.py",
    "obs.tail": "obs/tail.py",
    "obs.spans": "obs/spans.py",
    "hw.coherence": "hw/coherence.py",
    "check.invariants": "check/invariants.py",
    "nic.lauberhorn": "nic/lauberhorn/",
}
#: hot spots whose inbound call count is reported too
COUNTED_HOTSPOTS = ("net.checksum",)


def _relative(filename: str, package_root: str):
    """Path of ``filename`` inside ``src/repro`` (with ``/``), or None."""
    path = os.path.abspath(filename)
    if not path.startswith(package_root + os.sep):
        return None
    return path[len(package_root) + 1:].replace(os.sep, "/")


def layer_of(relative: str) -> str:
    """The layer of a file given by its path inside ``src/repro``."""
    head, _, rest = relative.partition("/")
    if not rest:  # package __init__.py, api.py
        return "experiments"
    if head in LAYERS:
        return head
    return _FOLDED[head]


def _hotspot_of(relative: str):
    for name, prefix in HOTSPOTS.items():
        if relative == prefix or (prefix.endswith("/")
                                  and relative.startswith(prefix)):
            return name
    return None


def metric_names() -> list:
    """Every metric :func:`attribute` emits, in order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.share", f"{layer}.calls_in"]
    names += ["other.self_s", "other.share"]
    for spot in HOTSPOTS:
        names.append(f"{spot}.self_s")
        if spot in COUNTED_HOTSPOTS:
            names.append(f"{spot}.calls")
    return names


def attribute(stats: dict, package_root: str) -> dict:
    """Bucket a ``cProfile.Profile().stats`` dict by layer and hot spot.

    Returns ``{metric: value}`` for every name in :func:`metric_names`
    plus ``total_s``; the layers' self time and ``other`` add up to it.
    """
    package_root = os.path.abspath(package_root)
    places: dict = {}

    def place(func):
        if func not in places:
            relative = _relative(func[0], package_root)
            places[func] = ((None, None) if relative is None
                            else (layer_of(relative), _hotspot_of(relative)))
        return places[func]

    self_s = dict.fromkeys(LAYERS + ("other",), 0.0)
    calls_in = dict.fromkeys(LAYERS, 0)
    spot_s = dict.fromkeys(HOTSPOTS, 0.0)
    spot_calls = dict.fromkeys(HOTSPOTS, 0)
    for func, (_cc, _nc, tottime, _ct, callers) in stats.items():
        layer, spot = place(func)
        self_s[layer or "other"] += tottime
        if spot is not None:
            spot_s[spot] += tottime
        if layer is None:
            continue
        for caller, counts in callers.items():
            caller_layer, caller_spot = place(caller)
            if caller_layer != layer:
                calls_in[layer] += counts[0]
            if spot is not None and caller_spot != spot:
                spot_calls[spot] += counts[0]

    total = sum(self_s.values())
    out = {"total_s": total}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
        out[f"{layer}.share"] = self_s[layer] / total
        out[f"{layer}.calls_in"] = calls_in[layer]
    out["other.self_s"] = self_s["other"]
    out["other.share"] = self_s["other"] / total
    for spot in HOTSPOTS:
        out[f"{spot}.self_s"] = spot_s[spot]
        if spot in COUNTED_HOTSPOTS:
            out[f"{spot}.calls"] = spot_calls[spot]
    return out
