"""The benchmark tracer finds every function it wraps.

perfbench/tracer.py rebinds layer functions by name; a rename in the
package would otherwise only show up as a failing ``--trace 1`` run.
"""

import inspect
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracer  # noqa: E402

from sp1kepler import cli, dynamics, realization  # noqa: E402


def test_spanned_names_resolve():
    for owner, attr, name, _peak, _extra in tracer.SPANNED:
        assert callable(getattr(owner, attr, None)), name


def test_aggregated_names_resolve():
    for module, attrs in tracer.AGGREGATED:
        for attr in attrs:
            assert callable(getattr(module, attr, None)), "%s.%s" % (module.__name__, attr)


def test_span_extras_see_their_arguments():
    # the extras read these by position
    def params(fn):
        return list(inspect.signature(fn).parameters)

    assert params(realization.family_values)[:3] == ["n", "zs", "ws"]
    assert params(dynamics.Trajectory.to_csv)[:2] == ["self", "path"]
    assert params(cli._bound_start)[:3] == ["n", "mu", "rng"]
    assert hasattr(dynamics.Trajectory, "__len__")
