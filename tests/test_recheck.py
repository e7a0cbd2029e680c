import re
from pathlib import Path

from doctrinelab import recheck as recheck_module
from doctrinelab.fincat import Square
from doctrinelab.recheck import recheck
from doctrinelab.verdicts import Verdict

SRC = Path(recheck_module.__file__).parent


def test_base_squares_refuted_and_rechecked(ps11):
    base = ps11.base
    one, two = "S1", "S2"
    a, b = base.hom(one, two)
    # two distinct points of a 2-element set do not commute over identities
    skew = Square(apex=one, to_f=base.identity[one], to_g=base.identity[one],
                  f=a, g=b)
    v = base.verify_square_is_pullback(skew)
    assert v.is_refuted and v.counterexample["kind"] == "square_not_commuting"
    assert recheck(ps11, v)
    # the kernel pair of S2 -> S1 is S2 x S2, not S2 over its identities:
    # the cone of the two distinct points has no mediator
    bang = base.hom(two, one)[0]
    diagonal = Square(apex=two, to_f=base.identity[two], to_g=base.identity[two],
                      f=bang, g=bang)
    v = base.verify_square_is_pullback(diagonal)
    assert v.is_refuted and v.counterexample["kind"] == "square_not_limiting"
    assert recheck(ps11, v)
    # the same payloads on genuine pullbacks do not recheck
    kernel = base.pullback(bang, bang)
    assert kernel is not None and base.verify_square_is_pullback(kernel)
    assert not recheck(ps11, Verdict.refuted(
        kind="square_not_limiting", square=vars(kernel),
        cone=v.counterexample["cone"]))
    assert not recheck(ps11, Verdict.refuted(
        kind="square_not_commuting", square=vars(base.pullback(a, b))))


def test_every_literal_refutation_kind_has_a_handler():
    # poset's hom_* verdicts are about a bare MonotoneMap, with no doctrine
    # to recheck them on, so they are left out by name
    pattern = re.compile(
        r'(?:Verdict\.refuted\(\s*kind=|_search_failure\(\s*d,\s*)"([^"]+)"')
    kinds = {k for path in SRC.glob("*.py")
             for k in pattern.findall(path.read_text(encoding="utf-8"))}
    kinds -= {"hom_top", "hom_meet"}
    assert "square_not_limiting" in kinds and "no_weak_power_object" in kinds
    assert sorted(kinds - set(recheck_module._HANDLERS)) == []
