"""Tests of the benchmark itself: the tracer and the verdict checks.

    python3 -m pytest perfbench -q
"""

import ast
import dataclasses
import inspect
import sys

import pytest

import run
import tracer as tracing
import workloads


@pytest.fixture(scope="module")
def traced_runs():
    """One checked pass and one traced pass of every workload's corpus."""
    runs = {}
    for name in ("library", "tour"):
        lib, corpus = run.setup(name, 5)
        expected, problems = run.checked_pass(corpus)
        tracer = tracing.Tracer()
        tracer.install()
        patches = tracer.patches
        try:
            loop = run.timed_passes(corpus, expected, 0, tracer=tracer)
        finally:
            tracer.remove()
        runs[name] = {"lib": lib, "problems": problems, "loop": loop, "tracer": tracer, "patches": patches}
    return runs


def _called_names(module) -> set:
    tree = ast.parse(inspect.getsource(module))
    return {n.func.id for n in ast.walk(tree) if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)}


def test_every_traced_function_and_import_binding_records_calls(traced_runs):
    calls: dict = {}
    per_span: dict = {}
    for r in traced_runs.values():
        for binding, n in r["tracer"].binding_calls.items():
            calls[binding] = calls.get(binding, 0) + n
            span = r["tracer"].binding_span[binding]
            per_span[span] = per_span.get(span, 0) + n
    # every traced function is seen through at least one of its bindings
    for span in tracing.TRACED:
        assert per_span.get(span, 0) >= 1, f"{span} recorded no call"
    # every `from .x import f` binding that its module calls is wrapped and seen
    for span, (module, path) in tracing.TRACED.items():
        if "." in path:
            continue
        for name, mod in list(sys.modules.items()):
            if not name.startswith("ultralip.") or name == f"ultralip.{module}":
                continue
            if path in vars(mod) and path in _called_names(mod):
                assert calls.get(f"{name}.{path}", 0) >= 1, f"{name}.{path} recorded no call"


def test_traced_verdicts_are_identical_to_untraced(traced_runs):
    for name, r in traced_runs.items():
        assert r["problems"] == [], name
        assert r["loop"]["failed"] == 0, f"{name}: a traced result differs from the checked one"


def test_wrappers_are_removed(traced_runs):
    for name, r in traced_runs.items():
        assert r["patches"], name
        for owner, attr, original in r["patches"]:
            assert getattr(owner, attr) is original, f"{owner}.{attr} still wrapped"
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("ultralip"):
            for value in vars(mod).values():
                assert not hasattr(value, "__wrapped_binding__"), mod_name


def test_layer_metrics_cover_the_per_layer_contract(traced_runs):
    names = {m["name"] for m in run.bench_spec()["per_layer"]}
    derived = set(traced_runs["library"]["tracer"].layer_metrics())
    measured_elsewhere = {
        "trace.overhead_frac",
        "lipschitz.growth_exp",
        "jacobian.growth_exp",
        "qp_core.sub_ord_ns",
        "qp_core.sub_ord_frac_ns",
        "qp_core.ac_ns",
    }
    assert names == derived | measured_elsewhere


def _first(corpus, kind):
    return next(a for a in corpus if a.kind == kind)


def test_checks_reject_wrong_verdicts():
    _, library = run.setup("library", 5)
    a = _first(library, "scan.poly")
    report = a.call()
    assert a.check(report) is None
    assert a.check(dataclasses.replace(report, constant_exponent=report.constant_exponent + 1))
    # a refusal passes only where the oracle finds a pole on a representative
    assert a.check(workloads.Refusal("DivisionByZero"))

    a = _first(library, "certify.cert")
    cert = a.call()
    assert a.check(cert) is None
    assert a.check(dataclasses.replace(cert, jac_ord=cert.jac_ord + 1))

    a = _first(library, "prepare.prepare")
    pieces = a.call()
    assert a.check(pieces) is None
    bad = [dataclasses.replace(pieces[0], exponent=pieces[0].exponent + 1)] + pieces[1:]
    assert a.check(bad)

    _, tour = run.setup("tour", 5)
    a = _first(tour, "tour.ord")
    rc, stdout = a.call()
    assert a.check((rc, stdout)) is None
    assert a.check((1, stdout))
    assert a.check((rc, stdout.replace('"ord":"', '"ord":"1')))


def test_speed_factors_scale_to_the_reference_and_ignore_one_disturbed_sample():
    ref = run.REFERENCE_S
    assert run.speed_factors([2 * ref] * 5) == [0.5] * 5
    # one slow sample, such as a stray interrupt, moves no factor
    factors = run.speed_factors([ref, ref, 10 * ref, ref, ref, ref])
    assert all(f == 1.0 for f in factors)
