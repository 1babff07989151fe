"""Loads cf3 from the source tree of the checkout the benchmark runs in."""

from __future__ import annotations

import importlib
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

MODULES = ("census", "commutant", "zlinalg", "forms", "solver", "frobenius",
           "roots", "sail")


class MissingProgram(RuntimeError):
    """The checkout holds no cf3 sources to measure."""


def load():
    """A dict of the cf3 modules, imported from ``<checkout>/src``."""
    if not os.path.isfile(os.path.join(SRC, "cf3", "__init__.py")):
        raise MissingProgram("no cf3 package under %s" % SRC)
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import cf3

    if os.path.dirname(os.path.dirname(os.path.abspath(cf3.__file__))) != SRC:
        raise MissingProgram("cf3 was imported from %s, not from %s" % (cf3.__file__, SRC))
    # cf3.census is shadowed by the census() function, so go through import_module.
    mods = {name: importlib.import_module("cf3." + name) for name in MODULES}
    mods["cf3"] = cf3
    return mods


class FormRecorder:
    """Pass-through wrapper on ``cf3.frobenius.q3`` that keeps the product
    form decide_thm3 built, so witnesses can be checked without a second
    q3 call.  It adds one Python call per decision."""

    def __init__(self, frobenius):
        self.last = None
        inner = frobenius.q3

        def q3(c, basis=None):
            self.last = inner(c, basis=basis)
            return self.last

        q3.__wrapped__ = inner
        frobenius.q3 = q3

    def take(self):
        pf, self.last = self.last, None
        return pf
