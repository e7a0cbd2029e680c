"""The package's records are plain slotted classes.  Those that end up in
memo keys compare and hash by value, and the payloads built from them keep
the key order that the reports print."""

import pytest

from doctrinelab.doctrine import Doctrine, bc_squares, is_sigma_doctrine
from doctrinelab.fincat import ArrowClass, Square
from doctrinelab.verdicts import REFUTED, Verdict


def test_verdict_takes_its_payload_by_keyword():
    v = Verdict(REFUTED, counterexample={"kind": "not_monic", "arrow": "f"})
    assert v.is_refuted and not v and v.window is None and v.reason is None
    assert v.to_json() == {"status": REFUTED, "counterexample":
                           {"kind": "not_monic", "arrow": "f"}}


@pytest.mark.parametrize("make,other", [
    (lambda: ArrowClass("Prj", ("f", "g")), ArrowClass("Prj", ("g", "f"))),
    (lambda: Square("P", "p", "q", "f", "g"), Square("P", "q", "p", "f", "g")),
])
def test_memo_key_records_compare_and_hash_by_value(make, other):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other and a != tuple(getattr(a, f) for f in a.__slots__)


def test_equal_records_share_one_memo_entry(triv):
    d = Doctrine(triv.base, triv.fibers, triv.reindex, name=triv.name)
    prj = d.base.projection_class()
    first = is_sigma_doctrine(d, prj, True, bc_squares(d, prj))
    entries = len(d._cache)
    again = ArrowClass(prj.name, prj.members)
    squares = [Square(*(getattr(s, f) for f in s.__slots__))
               for s in bc_squares(d, prj)]
    assert is_sigma_doctrine(d, again, True, squares) is first
    assert len(d._cache) == entries


def test_square_payloads_list_the_fields_in_order(ps11):
    base = ps11.base
    a, b = base.hom("S1", "S2")
    bang = base.hom("S2", "S1")[0]
    one, two = base.identity["S1"], base.identity["S2"]
    # two distinct points do not commute; S2 over its identities is not the
    # kernel pair of S2 -> S1
    for s, kind in ((Square("S1", one, one, a, b), "square_not_commuting"),
                    (Square("S2", two, two, bang, bang), "square_not_limiting")):
        v = base.verify_square_is_pullback(s)
        assert v.counterexample["kind"] == kind
        assert list(v.counterexample["square"].items()) == [
            ("apex", s.apex), ("to_f", s.to_f), ("to_g", s.to_g),
            ("f", s.f), ("g", s.g)]
