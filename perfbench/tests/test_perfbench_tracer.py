"""Tracer arithmetic and wrapping, on a fake module with a manual clock."""

import types

from tracer import Tracer, percentile

FAKE_SRC = '''
def matmul(now):
    now[0] += 3

def add(now):
    now[0] += 2

def linear(now):
    now[0] += 1
    matmul(now)
    now[0] += 4
    add(now)
    now[0] += 5

class Layer:
    def forward(self, now):
        linear(now)

    @staticmethod
    def width():
        return 7

    @property
    def name(self):
        return "layer"

def _private(now):
    now[0] += 100
'''


def fake_module():
    mod = types.ModuleType("fakenet")
    exec(FAKE_SRC, mod.__dict__)
    return mod


def test_self_time_subtracts_direct_children():
    mod = fake_module()
    now = [0]
    tracer = Tracer(clock=lambda: now[0])
    with tracer.installed([mod]):
        mod.linear(now)
    linear = tracer.get("fakenet.linear")
    assert (linear.calls, linear.total_ns, linear.self_ns) == (1, 15, 10)
    assert tracer.get("fakenet.matmul").self_ns == 3
    assert tracer.get("fakenet.add").self_ns == 2


def test_nested_three_deep_and_methods():
    mod = fake_module()
    now = [0]
    tracer = Tracer(clock=lambda: now[0])
    with tracer.installed([mod]):
        mod.Layer().forward(now)
        mod.Layer().forward(now)
        assert mod.Layer.width() == 7
        assert mod.Layer().name == "layer"
    fwd = tracer.get("fakenet.Layer.forward")
    assert (fwd.calls, fwd.total_ns, fwd.self_ns) == (2, 30, 0)
    assert tracer.get("fakenet.linear").self_ns == 20
    assert tracer.get("fakenet.Layer.width").calls == 1
    assert tracer.get("fakenet.Layer.name").calls == 0


def test_originals_restored_and_private_names_untouched():
    mod = fake_module()
    originals = {k: v for k, v in vars(mod).items() if callable(v)}
    raw_width = vars(mod.Layer)["width"]
    tracer = Tracer()
    with tracer.installed([mod]):
        assert mod.linear is not originals["linear"]
        assert mod._private is originals["_private"]
    for name, fn in originals.items():
        assert getattr(mod, name) is fn
    assert vars(mod.Layer)["width"] is raw_width


def test_scopes_hooks_and_samples():
    mod = fake_module()
    now = [0]
    seen = []
    tracer = Tracer(
        clock=lambda: now[0],
        before={"fakenet.linear": lambda args, kwargs: seen.append(("before", tracer.scope))},
        hooks={"fakenet.linear": lambda a, k, result, dur: seen.append(("after", tracer.scope, dur))},
        samples=["fakenet.add"],
        scopes={"fakenet.linear": "lin"},
    )
    with tracer.installed([mod]):
        mod.linear(now)
        mod.add(now)
    assert seen == [("before", "lin"), ("after", "lin", 15)]
    assert tracer.get("fakenet.matmul", ["lin"]).calls == 1
    assert tracer.get("fakenet.add", ["lin"]).calls == 1
    assert tracer.get("fakenet.add", ["other"]).calls == 1
    assert tracer.samples["fakenet.add"] == [2, 2]
    assert tracer.scope == "other"


def test_exception_closes_span():
    mod = types.ModuleType("boom")
    exec("def fail():\n    raise ValueError('x')\n", mod.__dict__)
    tracer = Tracer()
    with tracer.installed([mod]):
        try:
            mod.fail()
        except ValueError:
            pass
    assert tracer.get("boom.fail").calls == 1
    assert tracer._stack == []


def test_percentile_nearest_rank():
    values = list(range(1, 11))
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile([4.0], 90) == 4.0
