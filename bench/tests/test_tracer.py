import gc
import inspect
import itertools

import numpy as np
import pytest

import mherz
from mherz import cli, grid, norms, operators, verification, weights
from mherz.errors import GridSizeError, SupportWindowError
from tracer import LAYERS, Span, Tracer, layer_functions, package_modules, self_times


def binding_sites():
    """Every (container, key) that holds a layer function, with the value held."""
    originals = layer_functions(mherz)
    sites = {}
    for module in package_modules(mherz):
        for attr, value in vars(module).items():
            if inspect.isfunction(value) and value in originals:
                sites[(module.__name__, attr)] = value
    for name, sdef in cli.SUITES.items():
        if sdef.runner in originals:  # the others are private adapters
            sites[("cli.SUITES", name)] = sdef.runner
    return sites


def current(site):
    container, key = site
    if container == "cli.SUITES":
        return cli.SUITES[key].runner
    return getattr(__import__(container, fromlist=["_"]), key)


@pytest.fixture
def tracer():
    t = Tracer()
    t.install(mherz)
    yield t
    t.restore()


def test_layer_functions_cover_every_layer():
    layers = {q.split(".")[0] for q in layer_functions(mherz).values()}
    assert layers == set(LAYERS)


def test_every_binding_site_is_wrapped():
    before = binding_sites()
    t = Tracer()
    t.install(mherz)
    try:
        for site, original in before.items():
            assert current(site).__wrapped__ is original, site
        # names imported into other modules, the package and the suite registry
        assert verification.strong_maximal.__wrapped__ is operators.strong_maximal.__wrapped__
        assert verification.morrey_herz_norm.__wrapped__ is norms.morrey_herz_norm.__wrapped__
        assert cli.check_fefferman_stein.__wrapped__ is verification.check_fefferman_stein.__wrapped__
        assert cli.make_grid.__wrapped__ is grid.make_grid.__wrapped__
        assert weights.rubio_de_francia.__wrapped__ is operators.rubio_de_francia.__wrapped__
        assert operators.build_function.__wrapped__ is grid.build_function.__wrapped__
        assert norms.window_mask.__wrapped__ is grid.window_mask.__wrapped__
        assert mherz.strong_maximal is operators.strong_maximal
        assert cli.SUITES["john_nirenberg_bmo"].runner is verification.check_john_nirenberg_bmo
        # no package namespace or registry entry still refers to an original
        namespaces = [vars(m) for m in package_modules(mherz)]
        registry = list(cli.SUITES.values())
        for original in set(before.values()):
            for ref in gc.get_referrers(original):
                assert not any(ref is ns for ns in namespaces), original.__qualname__
                assert not any(ref is sdef for sdef in registry), original.__qualname__
    finally:
        t.restore()


def test_restore_puts_originals_back():
    before = binding_sites()
    suites = dict(cli.SUITES)
    t = Tracer()
    t.install(mherz)
    t.restore()
    for site, original in before.items():
        assert current(site) is original, site
    assert all(cli.SUITES[k] is v for k, v in suites.items())
    with pytest.raises(AttributeError):
        operators.strong_maximal.__wrapped__


def test_install_twice_is_refused(tracer):
    with pytest.raises(RuntimeError):
        tracer.install(mherz)


def test_self_time_on_synthetic_span_tree():
    #  root 0..10 ─┬─ a 1..4
    #              └─ b 5..9 ── c 6..7
    #  root2 20..22
    spans = [
        Span("root", 0.0, 10.0, -1),
        Span("a", 1.0, 4.0, 0),
        Span("b", 5.0, 9.0, 0),
        Span("c", 6.0, 7.0, 2),
        Span("root", 20.0, 22.0, -1),
    ]
    got = self_times(spans)
    assert got == {"root": (2, 5.0), "a": (1, 3.0), "b": (1, 3.0), "c": (1, 1.0)}
    assert sum(s for _, s in got.values()) == 12.0  # self times partition the roots


def test_wrapped_calls_nest_spans():
    ticks = itertools.count()
    t = Tracer(clock=lambda: float(next(ticks)))
    inner = t.wrap("norms.inner", lambda: None)
    outer = t.wrap("verification.outer", lambda: (inner(), inner()))
    outer()
    # outer 0..5 contains inner 1..2 and 3..4
    assert [(s.name, s.start, s.end, s.parent) for s in t.spans] == [
        ("verification.outer", 0.0, 5.0, -1),
        ("norms.inner", 1.0, 2.0, 0),
        ("norms.inner", 3.0, 4.0, 0),
    ]
    stats = t.stats()
    assert stats["verification.outer.self_s"] == 3.0
    assert stats["norms.inner.calls"] == 2
    assert stats["norms.inner.self_s"] == 2.0
    assert t.root_seconds() == 5.0


def test_exceptions_are_counted_and_reraised(tracer):
    with pytest.raises(GridSizeError):
        cli.make_grid(20, 20)
    spec = grid.make_grid(2, 2)
    outside = grid.constant(spec, 1.0)  # mass on the central cross, off the window
    params = norms.ExponentParams(alpha=0.25, p=2, q=2, lam=0.5)
    with pytest.raises(SupportWindowError):
        verification.morrey_herz_norm(outside, params)
    stats = tracer.stats()
    assert stats["grid.errors"] == 1
    assert stats["norms.errors"] == 1
    assert stats["cli.errors"] == stats["operators.errors"] == 0
    assert all(s.end >= s.start for s in tracer.spans)
    assert tracer._stack == []


def test_counters_on_real_calls(tracer):
    spec = grid.make_grid(2, 2)
    f = grid.restrict_to_window(grid.build_function(spec, builtin="noise", seed=1))
    g = grid.restrict_to_window(grid.build_function(spec, builtin="noise", seed=2))
    for h in (f, f, g):
        verification.strong_maximal(h, "dyadic-sides")
    operators.strong_maximal(f, operators.ITERATED_1D)
    stats = tracer.stats()
    n2 = spec.n_cells**2
    assert stats["operators.strong_maximal.dyadic-sides.calls"] == 3
    assert stats["operators.strong_maximal.dyadic-sides.cells"] == 3 * n2
    assert stats["operators.strong_maximal.iterated-1d.calls"] == 1
    # distinct (variant, input) pairs: f and g by dyadic-sides, f by iterated-1d
    assert stats["operators.strong_maximal.distinct_ratio"] == pytest.approx(3 / 4)
    # one grid, so every window_mask call after the first is redundant
    calls = stats["grid.window_mask.calls"]
    assert calls >= 2
    assert stats["grid.window_mask.distinct_ratio"] == pytest.approx(1 / calls)
    assert np.isfinite([v for v in stats.values()]).all()
