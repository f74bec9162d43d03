"""Fuzz of the document readers: one edit of a genuine document must exit 1.

The first test builds a certificate at n <= 16, makes one edit to its
document, and runs ``main(["verify", path])``.  The edits change a field's
value; toggle, duplicate or reorder subset members; flip a matrix bit;
delete or duplicate a line; truncate the document; or insert a NUL or a
non-ASCII byte.  Every edited document must exit 1 with nothing on stdout
and no traceback.

The second test takes a genuine certificate, matrix file or rows file and
misspells it: it inserts one non-ASCII character, ASCII control character,
underscore, sign, leading zero, doubled space or blank line.  Edits that
leave every line as the writers spell it are dropped; the genuine document
must exit 0 and every edited one exit 1.
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
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "doc.txt"


def run_main(argv):
    """main(argv)'s exit status, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


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
def test_every_edited_certificate_exits_1(doc_path, case, fmt):
    kind, data = case
    doc_path.write_bytes(data)
    code, out, err = run_main(["verify", str(doc_path), "--format", fmt])
    assert code == 1, (kind, data)
    assert out == ""
    assert "Traceback" not in err and err.strip()


CERT_WORDS = {"certificate", "n", "k", "target", "subset", "sign_swap", "det", "matrix", "end"}


def spelled_as_written(text):
    """True when, after a text-mode read, every line is as the writers spell it.

    That is: lines ended by "\\n", none blank, of tokens joined by single
    spaces, each a certificate word or an integer as str(int) writes it.
    """
    text = text.replace("\r\n", "\n").replace("\r", "\n")  # universal newlines
    lines = text.split("\n")
    return lines.pop() == "" and all(
        line and all(tok in CERT_WORDS or (tok.isascii() and tok.removeprefix("-").isdigit()
                                           and str(int(tok)) == tok)
                     for tok in line.split(" "))
        for line in lines)


def _int_lines(rows):
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


@st.composite
def genuine_document(draw):
    """(argv before the path, text) of a certificate, matrix file or rows file."""
    kind = draw(st.sampled_from(("certificate", "matrix", "rows")))
    if kind == "certificate":
        k = draw(st.integers(2, 4))
        n = draw(st.integers(2 * k, 10))
        bound = theorem_bound(n, k)
        return ["verify"], construct_matrix(n, draw(st.integers(-bound, bound)), k).to_text()
    if kind == "matrix":
        m = draw(st.integers(1, 4))
        entries = st.one_of(st.integers(-12, 12), st.integers(-10**30, 10**30))
        rows = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=m, max_size=m))
        return ["verify"], f"{m}\n{_int_lines(rows)}"
    # Entries up to 99 keep every family spectrum under its cell cap.
    m = draw(st.integers(1, 3))
    row = st.lists(st.integers(-99, 99), min_size=m + 1, max_size=m + 1)
    rows = draw(st.lists(row, min_size=m, max_size=m))
    return ["spectrum", "--no-values", "--rows"], f"{m}\n{_int_lines(rows)}"


MISSPELLINGS = ("non_ascii", "control", "underscore", "sign", "leading_zero",
                "doubled_space", "blank_line")


@st.composite
def misspelled(draw, text):
    """text with one misspelling inserted, and its kind."""
    kind = draw(st.sampled_from(MISSPELLINGS))
    if kind == "leading_zero":  # at the start of a token
        at = draw(st.sampled_from([0, *(i + 1 for i, c in enumerate(text[:-1]) if c in " \n")]))
        return kind, text[:at] + "0" + text[at:]
    if kind in ("doubled_space", "blank_line"):
        sep = " " if kind == "doubled_space" else "\n"
        at = draw(st.sampled_from([i for i, c in enumerate(text) if c == sep] or [0]))
        return kind, text[:at] + sep + text[at:]
    chars = {
        "non_ascii": st.characters(min_codepoint=0x80, exclude_categories=("Cs",)),
        "control": st.sampled_from([*map(chr, range(0x20)), "\x7f"]),
        "underscore": st.just("_"),
        "sign": st.sampled_from("+-"),
    }[kind]
    at = draw(st.integers(0, len(text)))
    return kind, text[:at] + draw(chars) + text[at:]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_every_misspelled_document_exits_1(doc_path, data):
    argv, text = data.draw(genuine_document())
    kind, edited = data.draw(misspelled(text))
    assume(not spelled_as_written(edited))
    doc_path.write_text(text)
    code, _, err = run_main([*argv, str(doc_path), "--format", "structured"])
    assert code == 0, (text, err)
    doc_path.write_bytes(edited.encode())
    code, out, err = run_main([*argv, str(doc_path), "--format", "structured"])
    assert code == 1, (kind, edited)
    assert out == ""
    assert "Traceback" not in err and err.strip()
