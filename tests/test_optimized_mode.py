"""Invariants are enforced by code that survives ``python -O``.

pytest itself cannot run under -O: its own ``assert`` statements would be
stripped and the run would pass vacuously.  So one script with explicit
``sys.exit`` checks runs in a ``python -O`` subprocess instead.
"""

import subprocess
import sys

SCRIPT = r"""
import sys

from kgraph_ktheory import families
from kgraph_ktheory.abgroup import ZERO_GROUP, FinAbGroup
from kgraph_ktheory.homology import DefectiveComplexError, homology_all
from kgraph_ktheory.intmat import IntMatrix
from kgraph_ktheory.kgraph import (
    ChainComplex, ColorKind, ColorSpec, CoefficientRow, GraphSpec, Involution,
    NonCommutingError, koszul_complex,
)
from kgraph_ktheory.spectral import (
    BottShiftDisagreementError, ConvergenceResult, E2Page, KTheoryTable, Part, assemble,
)

if sys.flags.optimize < 1:
    sys.exit("not running under -O")


def raises(error, call):
    try:
        call()
    except error:
        return True
    return False


def defective_complex():
    one = IntMatrix.from_rows([[1]])
    homology_all(ChainComplex((1, 1, 1), (one, one), CoefficientRow.INTEGER))


def non_commuting():
    a = IntMatrix.from_rows([[0, 1], [0, 0]])
    b = IntMatrix.from_rows([[1, 0], [1, 1]])
    koszul_complex((a, b), CoefficientRow.INTEGER)


def disagreeing_bott_shifts():
    zero_row = (ZERO_GROUP,) * 8
    cyclic = FinAbGroup.cyclic
    forged = E2Page(Part.REAL, 1, ((cyclic(3), ZERO_GROUP, cyclic(5)) + (ZERO_GROUP,) * 5, zero_row))
    blank = E2Page(Part.REAL, 1, (zero_row, zero_row))
    conv = ConvergenceResult(True, blank, forged, blank, (), ())
    assemble(conv, GraphSpec((ColorSpec(ColorKind.OFF_DIAGONAL, 2),), Involution.TRIVIAL))


def broken_factorization():
    families.gcd_all = lambda terms: 3
    colors = ((ColorKind.OFF_DIAGONAL, 2), (ColorKind.DIAGONAL, 5), (ColorKind.DIAGONAL, 8))
    spec = GraphSpec(tuple(ColorSpec(k, s) for k, s in colors), Involution.TRIVIAL)
    families.closed_form(spec)


def short_table():
    KTheoryTable(ko=(ZERO_GROUP,) * 7, ku=(ZERO_GROUP,) * 8)


checks = [
    (DefectiveComplexError, defective_complex),
    (NonCommutingError, non_commuting),
    (BottShiftDisagreementError, disagreeing_bott_shifts),
    (ValueError, broken_factorization),
    (ValueError, short_table),
]
missed = [call.__name__ for error, call in checks if not raises(error, call)]
if missed:
    print("not raised under -O:", ", ".join(missed))
    sys.exit(1)
print("ok")
"""


def test_invariant_checks_survive_python_O():
    proc = subprocess.run(
        [sys.executable, "-O", "-c", SCRIPT], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "ok"
