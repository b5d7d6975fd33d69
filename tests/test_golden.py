"""Byte-identity of results: one SHA-256 over fixed inputs from ``gen``.

The digest covers the canonical text of parsed matrices, ``certify_columns``
(plain and via a violator), ``diagonalize``, ``solve``, ``kernel_basis``,
the violator -> deficiency string -> saturation / mu pipeline and
``lemma_witness``, over GF(2), GF(5) and Q.  A change that alters any
certificate, matching, kernel basis or string changes the digest.  Sets are
written sorted, so the text does not depend on the interpreter's hash seed.
"""

import dataclasses
import hashlib
import random

import gen
from thincert import (DependentColumnsError, FieldSpec, Vector, certify_columns,
                      deficiency_string, diagonalize, hall_violator, is_saturated,
                      kernel_basis, lemma_witness, mu_finite, parse_matrix, render_matrix,
                      solve, support_graph)

#: recorded from the implementation before tokens were shared in parse_matrix
GOLDEN = "70907f70f8e8c9917d7c43908b91253bb486ad08d89ce389cab0d8d5da285c68"


def canon(obj) -> str:
    """``repr`` with every set sorted and dataclasses spelled field by field."""
    if isinstance(obj, (set, frozenset)):
        return "{" + ", ".join(sorted(canon(x) for x in obj)) + "}"
    if isinstance(obj, dict):
        return "{" + ", ".join(f"{canon(k)}: {canon(v)}" for k, v in obj.items()) + "}"
    if type(obj) in (list, tuple):
        return "[" + ", ".join(canon(x) for x in obj) + "]"
    if dataclasses.is_dataclass(obj):
        fields = ", ".join(f"{f.name}={canon(getattr(obj, f.name))}"
                           for f in dataclasses.fields(obj))
        return f"{type(obj).__name__}({fields})"
    return repr(obj)


def results():
    rng = random.Random(20261018)
    for spec in (FieldSpec.gf(2), FieldSpec.gf(5), FieldSpec.rationals()):
        for t in range(24):
            kind = t % 3
            if kind == 0:
                m = gen.independent_cols_matrix(spec, rng, 14, 12)
            elif kind == 1:
                m = gen.dependent_cols_matrix(spec, rng, 14, 12)
            else:
                m = gen.invertible_matrix(spec, rng, 12)
            yield parse_matrix(render_matrix(m))
            yield certify_columns(m)
            yield certify_columns(m, via_violator=True)
            yield diagonalize(m)
            yield kernel_basis(m)
            rhs = Vector.from_dense(spec, [gen.rand_scalar(spec, rng) for _ in range(m.num_rows)])
            yield solve(m, rhs)
            g = support_graph(m)
            violator = hall_violator(g)
            yield violator
            if violator is not None:
                s = deficiency_string(g, violator)
                yield s, is_saturated(g, s), mu_finite(g, s)
            s = gen.random_saturated_string(m, rng)
            try:
                yield lemma_witness(m, s)
            except DependentColumnsError as exc:
                yield str(exc), exc.kernel_vector


def digest() -> str:
    h = hashlib.sha256()
    for res in results():
        h.update(canon(res).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_results_are_byte_identical():
    assert digest() == GOLDEN
