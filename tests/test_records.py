"""The seven immutable records: fields, construction, immutability, equality, repr."""

import copy
import pickle

import pytest

from bindet import (
    BoundTable,
    ConstructionCertificate,
    ConstructionCheckReport,
    ConstructionParams,
    IntMatrix,
    SpectrumReport,
    bound_table,
    construct_matrix,
    spectrum_exhaustive,
    verify_construction,
)
from bindet.oracle import CheckResult

CERT = construct_matrix(10, -20, 3)
SELFTEST = verify_construction(8, 2)

# Each record with its field names in order and one set of field values.
RECORDS = {
    "IntMatrix": (IntMatrix, ("rows",), (((1, 0), (2, 3)),)),
    "ConstructionParams": (ConstructionParams, ("n", "k"), (10, 3)),
    "ConstructionCertificate": (
        ConstructionCertificate,
        ("params", "target", "subset", "sign_swap_applied", "matrix", "certified_det"),
        (CERT.params, CERT.target, CERT.subset, CERT.sign_swap_applied, CERT.matrix,
         CERT.certified_det),
    ),
    "BoundTable": (
        BoundTable,
        ("n", "k", "theorem_bound", "corollary_bound", "alpha", "best_k"),
        tuple(getattr(bound_table(10, 3), f)
              for f in ("n", "k", "theorem_bound", "corollary_bound", "alpha", "best_k")),
    ),
    "SpectrumReport": (
        SpectrumReport,
        ("n", "mode", "seen", "lo", "elapsed"),
        (2, "family", 0b101, -1, 0.5),  # the values -1 and 1
    ),
    "CheckResult": (CheckResult, ("name", "passed", "detail"), ("unit_determinant", False, "got 2")),
    "ConstructionCheckReport": (
        ConstructionCheckReport,
        ("n", "k", "checks", "targets_swept", "elapsed"),
        (SELFTEST.n, SELFTEST.k, SELFTEST.checks, SELFTEST.targets_swept, SELFTEST.elapsed),
    ),
}


@pytest.fixture(params=list(RECORDS))
def record(request):
    return RECORDS[request.param]


def test_fields_by_position_and_keyword(record):
    cls, fields, values = record
    for rec in (cls(*values), cls(**dict(zip(fields, values))),
                cls(values[0], **dict(zip(fields[1:], values[1:])))):
        for f, v in zip(fields, values):
            assert getattr(rec, f) is v or getattr(rec, f) == v


def test_wrong_arguments_raise_type_error(record):
    cls, fields, values = record
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(*values, unknown=0)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})
    if cls is not CheckResult:  # detail has a default
        with pytest.raises(TypeError):
            cls(*values[:-1])


def test_fields_cannot_be_assigned_or_deleted(record):
    cls, fields, values = record
    rec = cls(*values)
    for f in fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(rec, f, values[0])
        with pytest.raises(AttributeError):
            delattr(rec, f)
    for f, v in zip(fields, values):
        assert getattr(rec, f) is v or getattr(rec, f) == v


def test_repr_lists_the_fields(record):
    cls, fields, values = record
    body = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
    assert repr(cls(*values)) == f"{cls.__name__}({body})"


@pytest.mark.parametrize("name", list(RECORDS))
def test_equality_and_hash_by_value(name):
    cls, fields, values = RECORDS[name]
    a, b = cls(*values), cls(**dict(zip(fields, values)))
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b) and len({a, b}) == 1
    assert a != values and a != object()
    for rec in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(rec) is cls and rec == a


@pytest.mark.parametrize("name, field, other", [
    ("IntMatrix", "rows", ((1, 0), (2, 4))),
    ("ConstructionParams", "k", 4),
    ("ConstructionCertificate", "sign_swap_applied", False),
    ("BoundTable", "best_k", 3),
    ("CheckResult", "detail", ""),
    ("ConstructionCheckReport", "targets_swept", 0),
    ("SpectrumReport", "seen", 0b111),
])
def test_one_changed_field_breaks_equality(name, field, other):
    cls, fields, values = RECORDS[name]
    changed = dict(zip(fields, values), **{field: other})
    assert cls(*values) != cls(**changed)


def test_equal_fields_of_another_class_are_unequal():
    class Params(ConstructionParams):
        __slots__ = ()

    assert Params(10, 3) != ConstructionParams(10, 3)
    assert ConstructionParams(10, 3) != Params(10, 3)
    # A subclass keeps the fields it inherits.
    assert Params(10, 3) == Params(k=3, n=10) and Params(10, 3) != Params(10, 4)
    assert repr(Params(10, 3)).endswith("Params(n=10, k=3)")


def test_spectrum_report_compares_by_its_bitset():
    # The bitset is an int, so reports compare by value like every record.
    cls, fields, values = RECORDS["SpectrumReport"]
    a, b = cls(*values), cls(*values)
    assert a == b and hash(a) == hash(b)
    assert a.count == b.count == 2 and a.d == b.d == 2 and a.values == (-1, 1)


def test_spectrum_values_are_computed_once():
    r = spectrum_exhaustive(3)
    assert "values" not in vars(r)
    first = r.values
    assert first == (-2, -1, 0, 1, 2) and r.values is first
    with pytest.raises(AttributeError):
        r.values = ()
    assert r.values is first


def test_check_result_detail_defaults_to_empty():
    assert CheckResult("orthogonality_seed", True) == CheckResult("orthogonality_seed", True, "")
    assert CheckResult(name="x", passed=False).detail == ""


def test_validation_on_construction():
    with pytest.raises(ValueError, match="at least 2"):
        ConstructionParams(10, 1)
    with pytest.raises(ValueError, match="n >= 2k"):
        ConstructionParams(n=5, k=3)
    with pytest.raises(ValueError, match="not square"):
        IntMatrix(rows=((1, 0), (1,)))
    with pytest.raises(TypeError):
        IntMatrix(((1.0,),))


def test_text_round_trips():
    for cert in (CERT, construct_matrix(64, 12345), construct_matrix(9, 0, 2)):
        assert ConstructionCertificate.from_text(cert.to_text()) == cert
        assert IntMatrix.from_text(cert.matrix.to_text()) == cert.matrix


def test_carried_text_is_not_a_field():
    # A constructed matrix carries its rendered text; it equals, hashes and
    # reprs like the same rows built directly, and has the same text.
    built = CERT.matrix
    direct = IntMatrix(built.rows)
    assert built._text is not None and direct._text is None
    assert built == direct and hash(built) == hash(direct) and repr(built) == repr(direct)
    assert built.to_text() == direct.to_text()
