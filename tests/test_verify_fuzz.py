"""Fuzz of `bindet verify`: one edit of a genuine certificate must exit 1.

Each example builds a certificate at n <= 16, makes one edit to its
document, and runs ``main(["verify", path])``.  The edits change a field's
value; toggle, duplicate or reorder subset members; flip a matrix bit;
delete or duplicate a line; truncate the document; or insert a NUL or a
non-ASCII byte.  Every edited document must exit 1 with nothing on stdout
and no traceback.
"""

import contextlib
import io

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bindet import construct_matrix, theorem_bound
from bindet.cli import main

EDITS = ("field", "toggle_member", "duplicate_member", "reorder_members", "bit",
         "delete_line", "duplicate_line", "truncate", "byte")
SUBSET_LINE = 4  # certificate, n, k, target, subset, sign_swap, det, matrix, ...


@pytest.fixture(scope="module")
def cert_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "cert.txt"


@st.composite
def certificate_text(draw):
    k = draw(st.integers(2, 8))
    n = draw(st.integers(2 * k, 16))
    bound = theorem_bound(n, k)
    a = draw(st.one_of(st.sampled_from((0, 1, -1, bound, -bound)), st.integers(-bound, bound)))
    return n, construct_matrix(n, a, k).to_text()


def _members(lines):
    return lines[SUBSET_LINE].split()[1:]


def _with_members(lines, members):
    lines[SUBSET_LINE] = " ".join(["subset", *members])


@st.composite
def edited_document(draw):
    """The bytes of a certificate document after one edit."""
    n, text = draw(certificate_text())
    lines = text.splitlines()
    kind = draw(st.sampled_from(EDITS))
    if kind == "field":
        i = draw(st.integers(1, 6))
        key, _, old = lines[i].partition(" ")
        if key == "subset":
            new = " ".join(map(str, draw(st.lists(st.integers(-2, n + 2), max_size=n + 1))))
        else:
            new = str(draw(st.one_of(st.integers(-3, 40), st.integers())))
        assume(new.split() != old.split())
        lines[i] = f"{key} {new}".rstrip()
    elif kind == "toggle_member":
        members = _members(lines)
        j = str(draw(st.integers(1, n)))
        members = [m for m in members if m != j] if j in members else sorted([*members, j], key=int)
        _with_members(lines, members)
    elif kind == "duplicate_member":
        members = _members(lines)
        assume(members)
        i = draw(st.integers(0, len(members) - 1))
        _with_members(lines, members[:i + 1] + members[i:])
    elif kind == "reorder_members":
        members = _members(lines)
        assume(len(members) >= 2)
        reordered = draw(st.permutations(members))
        assume(reordered != members)
        _with_members(lines, reordered)
    elif kind == "bit":
        first = lines.index("matrix") + 2
        i = draw(st.integers(first, first + n - 1))
        cells = lines[i].split()
        j = draw(st.integers(0, n - 1))
        cells[j] = "1" if cells[j] == "0" else "0"
        lines[i] = " ".join(cells)
    elif kind in ("delete_line", "duplicate_line"):
        i = draw(st.integers(0, len(lines) - 1))
        lines[i:i + 1] = [] if kind == "delete_line" else [lines[i]] * 2
    data = ("\n".join(lines) + "\n").encode("ascii")
    if kind == "truncate":  # cut into the text, not just its final newline
        data = data[:draw(st.integers(0, len(data.rstrip()) - 1))]
    elif kind == "byte":
        at = draw(st.integers(0, len(data)))
        byte = draw(st.sampled_from((0, *range(0x80, 0x100))))
        data = data[:at] + bytes([byte]) + data[at:]
    return kind, data


@settings(max_examples=250, deadline=None)
@given(edited_document(), st.sampled_from(("pretty", "structured")))
def test_every_edited_certificate_exits_1(cert_path, case, fmt):
    kind, data = case
    cert_path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", str(cert_path), "--format", fmt])
    assert code == 1, (kind, data)
    assert out.getvalue() == ""
    assert "Traceback" not in err.getvalue() and err.getvalue().strip()
