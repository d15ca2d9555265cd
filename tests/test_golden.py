"""Golden CLI outputs: the SHA-256 of stdout for a fixed set of calls.

The digests were taken before the heap-ordered normal form and the merged
u-monomial printer went in; any refactor of the engine or the renderers
must leave these bytes unchanged.  A digest that moves means the output
moved: find out why before re-pinning it.

The three digests at genus 20 and 24 were taken before the series kernel
moved to integer numerators over a common denominator, and the three at
`hamiltonian --index 4 --genus 10`, `flow --index 3 --genus 8` and
`verify commute --genus 12` before the differential-polynomial calculus did.
The two at `flow --index 3 --genus 6` (latex and csv) were taken before the
renderers read the flat term map directly.
The five at `verify linear-term` and `one-point --max-genus 12 --format
latex` were taken before the linear-term check and the one-point expansion
were written as series identities.
The four at `verify one-point-reverse --genus 12|20` and the one at
`one-point --max-genus 30 --format csv` were taken before the one-point table
and S were both read off the one expansion of ((t/2)/sin(t/2))^(k+1).
The three at `hamiltonian --index 130 --genus 2`, `--index 300 --genus 1`
and `one-point --max-genus 64 --format csv` were taken before the kernels
moved to packed integer keys; their exponents need wide fields.
The three at `verify cg --genus 40` (whole, and with a shifted C_40) and
`one-point --max-genus 40 --format csv` were taken before each degree slice
of the graded series solve became one integer accumulation.

The two JSON digests (`hamiltonian --index 2 --genus 6 --format json` and
`verify all --genus 4 --format json`) were re-pinned when the `seed` key
left the envelope's `config`: each is the SHA-256 of the earlier stdout with
its single line `    "seed": 0,` deleted.

The digest of `verify all --genus 5 --perturb-cg 3:1/1000` was re-pinned when
the engine error of the `h_2` recursion stopped naming a linear system that
is no longer solved: its two error lines now read "h_2 is not a conserved
quantity of h_1 at h^4", and nothing else in the output moved.

The four `verify-suite` digests (`verify all --genus 8`, `verify commute
--genus 9`, and `verify all --genus 6` with a shifted C_2 and C_6, all in
JSON) were taken before the verifiers took the Hamiltonians they check
instead of building them, and each `verify` call began to build each h_i
once.  With C_2 shifted the h_2(6) build raises, and both checks that need
it report the same error; with C_6 shifted it succeeds.
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
        "6701b94cadd53ea1b8014c10c4beeb2ef9a164fbd0e6469ff4af70328cbf5149",
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
        "d91d1a93713f74c2e3240024536f6e332c0c9eca449abe4235d75145c8b0287a",
    ("verify", "all", "--genus", "4"):
        "8f0f141a987bbd1dd570cc9afc7d00ea7b3906c6a6d8fe9f1eca936392e933ed",
    ("verify", "all", "--genus", "5", "--perturb-cg", "3:1/1000"):
        "a059e30e725cbdc6e2e6159415974a506f63bc41bdc4390f025378a5e52fdb98",
    ("one-point", "--max-genus", "4", "--format", "csv"):
        "11ab29ad3bf158b4896f7bfc0fece1d508734e65155b365f8967be86074659a2",
    ("one-point", "--max-genus", "4", "--format", "latex"):
        "1023ce50eef4c847ebe075c2184bd5fd62bdeacfeeecfa47931474758cdc74c3",
    ("bernoulli", "--max", "6", "--format", "csv"):
        "0ecadceab2f3db8469c03537742fd65d1fd3c82bf5e7ce1a4fd7a80ea2723546",
    ("bernoulli", "--max", "6", "--format", "latex"):
        "3a6d99c1a9bf2a1cc826ccc5bc75385b6cc44befd31e5f1de403baf6987c9900",
    ("constants", "--max-genus", "5", "--format", "csv"):
        "4f72482ac09757f1880f8228f8f0658753cf04fdbb111bfa51bfdf36755100fc",
    ("constants", "--max-genus", "5", "--format", "latex"):
        "e26e744efdb147cdf57282a6314d743db6743c14a79e352c926f74e7c19e53de",
    ("flow", "--index", "1", "--genus", "3", "--format", "csv"):
        "9e359173eb6e8841f7726bfbaa242032e7016b44a769fc57631284c635c6258c",
    # the benchmark's orders: the mismatch lines carry the computed C_24 and
    # the ODE-side S coefficient at h^20 e^19
    ("one-point", "--max-genus", "24", "--format", "json"):
        "c06592674875b7716d4f4ffbbe7ca789ff4f177f49d27a93c0ea24c19d2ad8f4",
    ("verify", "cg", "--genus", "24", "--perturb-cg", "24:1/7", "--format", "json"):
        "0fe2a7b6a0c3fde726470deb6c4757879256e67de7e1ccae7154f23c5475a979",
    ("verify", "one-point-reverse", "--genus", "20", "--perturb-cg", "20:-1/3",
     "--format", "json"):
        "e6b04d2660f2b16177ea39d9313fa6fcc3802c2116d3f831143daad6b22d1d39",
    # the calculus kernel's orders: h_4 and the flow of h_3 in full, and every
    # commutation check at genus 12
    ("hamiltonian", "--index", "4", "--genus", "10", "--format", "json"):
        "6c5fd30643340ce907a2da3430d7b9f5bc5eb44eb3c8ce6eb846e375e72b8b0c",
    ("flow", "--index", "3", "--genus", "8", "--format", "json"):
        "e5723be9f8c225c9b468c7b4e0c75e2abd6daf8ffa10ff2d05b695892d2cb3da",
    ("verify", "commute", "--genus", "12", "--format", "json"):
        "7aed0614b01b07ed34561486e988db62e00ab846ca699a60a0538f45e45592d8",
    # the renderers' tables: every term of a flow on its own row (csv) and as
    # one LaTeX expression
    ("flow", "--index", "3", "--genus", "6", "--format", "latex"):
        "32c62d93d38a78e2ec9f20646c450860225b236ea27376654a24b7138df455b4",
    ("flow", "--index", "3", "--genus", "6", "--format", "csv"):
        "88ea00c6e367afde537704a2eda487d313ca6ae1c1c1147c8b3a70249107ae89",
    # the linear-term identity, whole and with a shifted C_1, C_6 and C_12
    # (the mismatch lines carry both sides' values), and the one-point table
    # read off the exponential of (1 + k) log
    ("verify", "linear-term", "--genus", "20", "--format", "json"):
        "cf50624b3b5c8314fa7c5805fe8bdd9be83b01ec4289806b8238b2e42b9eb165",
    ("verify", "linear-term", "--genus", "12", "--perturb-cg", "1:-37/123456",
     "--format", "json"):
        "43b3a5da83fdc1b2ef3fef3b75ed7ff57a87b2084527488431ce3a7e624d99d8",
    ("verify", "linear-term", "--genus", "12", "--perturb-cg", "6:-37/123456",
     "--format", "json"):
        "c6bdd11a1cd45371a5ae918bb8fff515336a2ef3151ae85d72d42ef3e9bc48bd",
    ("verify", "linear-term", "--genus", "12", "--perturb-cg", "12:-37/123456",
     "--format", "json"):
        "698f2ba33c296ab038ee19a46443a60219fc3b7245937d6998fe51af95680e07",
    ("one-point", "--max-genus", "12", "--format", "latex"):
        "8ca0a738929ca091428d483bff18685e21c4137e48a597d1db41d226d118a409",
    # the reverse scan, whole at genus 20 and with a shifted C_1, C_6 and C_12
    # at genus 12, and the one-point table at genus 30
    ("verify", "one-point-reverse", "--genus", "12", "--perturb-cg", "1:-37/123456",
     "--format", "json"):
        "dff6783afbd44e400dd1260c8dabe6a4a5b70e2436c497fa43bee57430840d9e",
    ("verify", "one-point-reverse", "--genus", "12", "--perturb-cg", "6:-37/123456",
     "--format", "json"):
        "8a2829d26eb9188e8cd3446ea764c11e1a8c97b5ec2b69c8ea5856daf16f9e38",
    ("verify", "one-point-reverse", "--genus", "12", "--perturb-cg", "12:-37/123456",
     "--format", "json"):
        "22eb371159ef1859232d2972435a8507385089da2249fa315f6d2ff4eea48ecc",
    ("verify", "one-point-reverse", "--genus", "20", "--format", "json"):
        "71d4a97dac17872ea279a5edd7343de5299f56c99f93a6b46ee29f423fdd43ac",
    ("one-point", "--max-genus", "30", "--format", "csv"):
        "294d87b9033a4ab579306b6f712756bc900e75e5992e02d014a1cc00bf78b5e9",
    # wide exponents: u^132 and u^302 lead h_130 and h_300, and the series
    # ring of the one-point table at genus 64 has order 129
    ("hamiltonian", "--index", "130", "--genus", "2", "--format", "json"):
        "7efe6c921dd2b8674baf6c62f60ae904d1ba2c150d150cfb8c5f670f93dd623b",
    ("hamiltonian", "--index", "300", "--genus", "1", "--format", "json"):
        "2e72856d395802ee412c2fe152b2678361125779f2a785b62d6fc7e9242c0370",
    ("one-point", "--max-genus", "64", "--format", "csv"):
        "2605804647b7f9131a6dc897aa74c62563737869a5ac4300e654331bbb8358fc",
    # the graded solve at genus 40: S, S~ and the quotient that yields C_40
    # (the mismatch line carries the computed C_40), and S re-keyed
    ("verify", "cg", "--genus", "40"):
        "5ce2d8b55b100d736daf88bd90a0fd45752e4c17693d159a0d0e4ed0608e77c0",
    ("verify", "cg", "--genus", "40", "--perturb-cg", "40:1/7", "--format", "json"):
        "ea6a1c36e7422c0fa1f47e4f64df8e35742d8d8604fda9c61bd6826d062b2ba2",
    ("one-point", "--max-genus", "40", "--format", "csv"):
        "84f2c67145826d10ed70fc35d1bf53e3aa57a6a21bce9d90b52db88e7f67c34b",
    # the benchmark's verify-suite ops: every check at genus 8 and 9, and the
    # h_2(6) build that raises (C_2 shifted) or succeeds (C_6 shifted)
    ("verify", "all", "--genus", "8", "--format", "json"):
        "e5ae0138d7535a51d40446b558e388ddcb864d5e5ecaef02ece3d1d1d5cdeca7",
    ("verify", "commute", "--genus", "9", "--format", "json"):
        "e84ba5479d39dcbc3daba2526d7130ed8eef0c29140bc69f687bf5ee203c0651",
    ("verify", "all", "--genus", "6", "--perturb-cg", "2:5/7", "--format", "json"):
        "a04752aa3ce3cf2bea95046de0d8075ef099dc622f78f99f4f5c96e14b78131a",
    ("verify", "all", "--genus", "6", "--perturb-cg", "6:5/7", "--format", "json"):
        "557fb504f9fef844bf1dc5a72d431a562354638e874bda74af89563b56a59705",
}

# Calls whose exit code is not 0: a perturbed run reports every mismatch
# and engine error and exits 1.
EXIT_CODE = {
    ("verify", "all", "--genus", "5", "--perturb-cg", "3:1/1000"): 1,
    ("verify", "cg", "--genus", "24", "--perturb-cg", "24:1/7", "--format", "json"): 1,
    ("verify", "cg", "--genus", "40", "--perturb-cg", "40:1/7", "--format", "json"): 1,
    ("verify", "one-point-reverse", "--genus", "20", "--perturb-cg", "20:-1/3",
     "--format", "json"): 1,
    **{
        ("verify", "linear-term", "--genus", "12", "--perturb-cg", f"{g0}:-37/123456",
         "--format", "json"): 1
        for g0 in (1, 6, 12)
    },
    **{
        ("verify", "one-point-reverse", "--genus", "12", "--perturb-cg", f"{g0}:-37/123456",
         "--format", "json"): 1
        for g0 in (1, 6, 12)
    },
    **{
        ("verify", "all", "--genus", "6", "--perturb-cg", f"{g0}:5/7", "--format", "json"): 1
        for g0 in (2, 6)
    },
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_stdout_digest(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == EXIT_CODE.get(argv, 0)
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[argv]
