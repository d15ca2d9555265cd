"""Golden CLI outputs: the SHA-256 of stdout for a fixed set of calls.

The digests were taken before the heap-ordered normal form and the merged
u-monomial printer went in; any refactor of the engine or the renderers
must leave these bytes unchanged.  A digest that moves means the output
moved: find out why before re-pinning it.
"""

from __future__ import annotations

import hashlib

import pytest

from ilwhodge.cli import main

GOLDEN = {
    ("bernoulli", "--max", "12"):
        "45384ea255dfc3572ed045ad90e40fa2d42eebb38b2389b1ce83c334b494f1aa",
    ("constants", "--max-genus", "8"):
        "467d92971789b928cbcd009c6a9e746a1eea9ea485ac02e1d50fa288b8e38d69",
    ("one-point", "--max-genus", "4"):
        "88622bbed8a3bd21689e54e34c6ae4d03bf428a9568e37319012eeb426000e76",
    ("hamiltonian", "--index", "2", "--genus", "6", "--format", "json"):
        "3649e1ab5be29fe7910f7b83689f1dbc119aafd43e92e22002d38ed4c425f6c0",
    ("hamiltonian", "--index", "2", "--genus", "6", "--format", "pretty"):
        "96e88d3adc890d5bb0aa044457064ea7d6ea7f77f3df0c617b3382d99095f3d3",
    ("hamiltonian", "--index", "2", "--genus", "6", "--format", "csv"):
        "ed6b0f17309d5c419e61f6bd1a90f25ae06377e59bab7075f8cea6b36a12e17d",
    ("hamiltonian", "--index", "2", "--genus", "6", "--format", "latex"):
        "98bacf14fe27d3ffaf2ffe7b12c324c896909a862a40b6a0bfb67a4c3219e3a2",
    ("hamiltonian", "--index", "3", "--genus", "4"):
        "57214b52654426db970c669070aa3e0c65f1dfb454b3acfa93c3859d2f0b30c5",
    ("flow", "--index", "2", "--genus", "4"):
        "6fe5862b1c9dbee67c828182c5357220f58664479d49cceb23dda5e855cdf930",
    ("verify", "all", "--genus", "4", "--format", "json"):
        "095b2318601947366165501775cdabde0de55e4fcda19c654b2f7966e119f98b",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_stdout_digest(capsys, monkeypatch, argv):
    for name in ("FORMAT", "OUTPUT", "SEED", "GENUS", "INDEX"):
        monkeypatch.delenv(f"ILWHODGE_{name}", raising=False)
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
