"""The traced benchmark run wraps seqmat functions by name; every name must resolve.

bench/tracing.py looks each name in SPANNED up in its seqmat.<layer>
module, and each name in FIELD_OPS on FieldSpec, with getattr, and
counts each field op under FIELD_SUFFIX[field.kind].  A name moved or
renamed in the library, or a kind missing from FIELD_SUFFIX, would break
the traced run, so both are checked here.
"""

import importlib
import importlib.util
from pathlib import Path

from seqmat.fields import GF2, RATIONAL, FieldSpec, gfp

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracing = _load_tracing()
    for layer, names in tracing.SPANNED.items():
        module = importlib.import_module(f"seqmat.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"seqmat.{layer}.{name}"
    for op in tracing.FIELD_OPS:
        assert callable(getattr(FieldSpec, op, None)), f"FieldSpec.{op}"
    for field in (GF2, gfp(7), RATIONAL):
        assert field.kind in tracing.FIELD_SUFFIX, f"{field}.kind"
