"""The benchmark's traced run can wrap every layer it names in the package."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracing_patches_resolve_and_restore():
    tracing = _load_tracing()
    patches = tracing.Patches(tracing.Tracer())
    owners = [*patches.modules] + [entry[0] for entry in patches.plan + patches.extra]
    before = {id(owner): dict(vars(owner)) for owner in owners}

    try:
        patches.install()
        patched = {(id(owner), attr) for owner, attr, *_ in patches.plan + patches.extra}
        installed = {(id(target), attr) for target, attr, _ in patches.saved}
        assert patched <= installed
        for target, attr, original in patches.saved:
            assert getattr(target, attr) is not original, f"{target.__name__}.{attr}"
    finally:
        patches.uninstall()

    assert {id(owner): dict(vars(owner)) for owner in owners} == before
