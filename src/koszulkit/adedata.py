"""Expected dimension tables and class-level product tables per Dynkin type.

Every entry carries a table key such as ``A.HK1.dim`` or ``E7.cup.z8*h0``
that identifies the violated fact in failure messages.  A product table
maps ordered generator pairs to expected linear combinations of generator
classes; pairs absent from a table are expected to vanish.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

ExpectedCombo = Dict[str, int]  # generator label -> integer coefficient


def type_params(name: str) -> Tuple[str, int]:
    return name[0], int(name[1:])


def expected_hk_dims(name: str, char: int) -> Tuple[int, int, int]:
    fam, n = type_params(name)
    if fam == "A":
        m = (n - 1) // 2
        return (m + 1, n - 1 - m, n)
    if fam == "D":
        m = (n - 2) // 2
        u = n - m - 2
        pis = n if n % 2 == 0 else n - 2
        extra = m if char == 2 else 0
        return (pis + u, u + extra, n + extra)
    if name == "E6":
        extra = 1 if char in (2, 3) else 0
        return (5, 3 + extra, 6 + extra)
    if name == "E7":
        extra = {2: 3, 3: 1}.get(char, 0)
        return (10, 3 + extra, 7 + extra)
    if name == "E8":
        extra = {2: 4, 3: 2, 5: 1}.get(char, 0)
        return (12, 4 + extra, 8 + extra)
    raise ValueError(name)


def expected_higher_dims(name: str, char: int) -> Tuple[int, int, int]:
    fam, n = type_params(name)
    if char == 2:
        return expected_hk_dims(name, char)
    if fam == "A":
        return (1 if n % 2 == 1 else 0, 0, n)
    if fam == "D":
        pis = n if n % 2 == 0 else n - 2
        return (pis, 0, n)
    if name == "E6":
        return (2, 1, 7) if char == 3 else (2, 0, 6)
    if name == "E7":
        # in characteristic 3 the weight-5 class survives: its fundamental
        # cup differential is exactly zero
        return (7, 1, 8) if char == 3 else (7, 0, 7)
    if name == "E8":
        # the fundamental cup differential vanishes on the small-characteristic
        # extra classes, which therefore all survive
        if char == 3:
            return (8, 2, 10)
        if char == 5:
            return (8, 1, 9)
        return (8, 0, 8)
    raise ValueError(name)


def expected_higher_zero_generators(name: str, char: int) -> List[str]:
    """Generators whose classes span the degree-0 higher cohomology."""
    fam, n = type_params(name)
    if char == 2:
        return []
    if fam == "A":
        m = (n - 1) // 2
        return [f"z{m}"] if n % 2 == 1 else []
    if fam == "D":
        pis = range(n) if n % 2 == 0 else range(2, n)
        return [f"pi{i}" for i in pis]
    if name == "E6":
        return ["pi0", "pi3"]
    return [f"pi{i}" for i in range(n)]


def expected_cup_table(name: str, char: int) -> Dict[Tuple[str, str], ExpectedCombo]:
    """Nonzero class-level cup products on ordered generator pairs.

    Only pairs of total degree at most 2 appear; unit products and graded
    commutativity are handled by the verifier itself.
    """
    fam, n = type_params(name)
    table: Dict[Tuple[str, str], ExpectedCombo] = {}
    if fam == "A":
        m = (n - 1) // 2
        for l1 in range(m + 1):
            for l2 in range(m + 1):
                if 0 < l1 + l2 <= m and l1 and l2:
                    table[(f"z{l1}", f"z{l2}")] = {f"z{l1+l2}": 1}
            for l2 in range(n - 1 - m):
                if l1 and l1 + l2 <= n - 2 - m:
                    table[(f"z{l1}", f"zeta{l2}")] = {f"zeta{l1+l2}": 1}
        return table
    if fam == "D":
        m = (n - 2) // 2
        u = n - m - 2
        for l1 in range(1, u):
            for l2 in range(1, u):
                if l1 + l2 <= u - 1:
                    table[(f"z{l1}", f"z{l2}")] = {f"z{l1+l2}": 1}
                elif n % 2 == 0 and l1 + l2 == m:
                    table[(f"z{l1}", f"z{l2}")] = {"pi0": -1, "pi1": 1}
            for l2 in range(u):
                if l1 + l2 <= u - 1:
                    table[(f"z{l1}", f"zeta{l2}")] = {f"zeta{l1+l2}": 1}
            if char == 2:
                for l2 in range(m):
                    if l1 + l2 <= m - 1:
                        table[(f"z{l1}", f"rho{l2}")] = {f"rho{l1+l2}": 1}
                table[(f"z{l1}", "h0")] = {f"gamma{l1}": 1}
                table[(f"z{l1}", "h1")] = {f"gamma{l1}": 1}
                for l2 in range(1, m + 1):
                    if l1 + l2 <= m:
                        table[(f"z{l1}", f"gamma{l2}")] = {f"gamma{l1+l2}": 1}
        if char == 2:
            # products of the corrected weight-(4l+3) cocycles with the
            # degree-1 central family land on the gamma classes
            for l1 in range(u):
                for l2 in range(m):
                    if l1 + l2 + 1 <= m:
                        table[(f"zeta{l1}", f"rho{l2}")] = {f"gamma{l1+l2+1}": 1}
        if char == 2 and n % 2 == 0:
            for i in range(n):
                table[(f"pi{i}", f"h{i}")] = {f"gamma{m}": 1}
        return table
    if name == "E6":
        if char == 2:
            # the central multiple of zeta0 at weight 7 is a coboundary here
            table[("z8", "zeta0")] = {"zeta8": 1}
        else:
            for ell in (6, 8):
                table[(f"z{ell}", "zeta0")] = {f"zeta{ell}": 1}
        if char == 3:
            table[("z6", "h1")] = {"gamma6": 1}
            table[("z6", "h4")] = {"gamma6": 1}
            table[("z6", "h2")] = {"gamma6": -1}
            table[("z6", "h5")] = {"gamma6": -1}
        if char == 2:
            table[("z6", "rho3")] = {"zeta8": 1}
            table[("zeta0", "rho3")] = {"gamma4": 1}
        return table
    if name == "E7":
        for ell in (8, 12):
            table[(f"z{ell}", "zeta0")] = {f"zeta{ell}": 1}
        table[("z8", "z8")] = {"pi0": 1, "pi4": 1, "pi6": 1}
        if char == 2:
            table[("z8", "rho7")] = {"rho15": 1}
            table[("z12", "rho3")] = {"rho15": 1}
            for i in range(7):
                table[(f"pi{i}", f"h{i}")] = {"gamma16": 1}
            for i in (0, 4, 6):
                table[("z8", f"h{i}")] = {"gamma8": 1}
            table[("z8", "gamma8")] = {"gamma16": 1}
            table[("z12", "gamma4")] = {"gamma16": 1}
            for ell in (3, 7, 15):
                table[("zeta0", f"rho{ell}")] = {f"gamma{ell+1}": -1}
            table[("zeta8", "rho7")] = {"gamma16": 1}
            table[("zeta12", "rho3")] = {"gamma16": 1}
        if char == 3:
            # the weight-13 class is the central multiple of the weight-5 one
            table[("z8", "rho5")] = {"zeta12": 1}
        return table
    if name == "E8":
        for ell in (12, 20, 24):
            table[(f"z{ell}", "zeta0")] = {f"zeta{ell}": 1}
        table[("z12", "z12")] = {"z24": 1}
        table[("z12", "zeta12")] = {"zeta24": 1}
        if char == 2:
            table[("z12", "rho3")] = {"rho15": 1}
            table[("z24", "rho3")] = {"rho27": 1}
            table[("z12", "rho15")] = {"rho27": 1}
            table[("z20", "rho7")] = {"rho27": 1}
            for i in range(8):
                table[(f"pi{i}", f"h{i}")] = {"gamma28": 1}
            table[("z12", "gamma4")] = {"gamma16": 1}
            table[("z12", "gamma16")] = {"gamma28": 1}
            table[("z24", "gamma4")] = {"gamma28": 1}
            table[("z20", "gamma8")] = {"gamma28": 1}
            for ell in (3, 7, 15, 27):
                table[("zeta0", f"rho{ell}")] = {f"gamma{ell+1}": -1}
            table[("zeta12", "rho3")] = {"gamma16": 1}
            table[("zeta12", "rho15")] = {"gamma28": 1}
            table[("zeta20", "rho7")] = {"gamma28": 1}
            table[("zeta24", "rho3")] = {"gamma28": 1}
        if char == 3:
            table[("z12", "rho5")] = {"rho17": 1}
            table[("z20", "rho5")] = {"zeta24": 1}
            table[("z12", "gamma6")] = {"gamma18": 1}
        if char == 5:
            table[("z12", "rho9")] = {"zeta20": -1}
        return table
    raise ValueError(name)


def expected_hh2_dim(name: str, char: int) -> Optional[int]:
    fam, n = type_params(name)
    if fam == "A":
        m = (n - 1) // 2
        return n - m - 1
    if fam == "D":
        m = (n - 2) // 2
        if char == 2:
            return n + m - 2
        return 1 if n % 2 == 1 else 0
    if name == "E6":
        return {2: 5, 3: 3}.get(char, 2)
    if name == "E7":
        return {2: 9, 3: 1}.get(char, 0)
    if name == "E8":
        dims = expected_hk_dims(name, char)
        return {2: dims[2], 3: 2, 5: 1}.get(char, 0)
    return None


def expected_hh2_basis(name: str, char: int) -> Optional[List[ExpectedCombo]]:
    """Generator combinations spanning the embedded HH^2, when tabulated."""
    fam, n = type_params(name)
    if fam == "A":
        # the Cartan kernel pairs the mirrored vertices with opposite signs
        # in this presentation (the signs coincide in characteristic 2)
        m = (n - 1) // 2
        return [{f"h{i}": 1, f"h{n-1-i}": -1} for i in range(n - m - 1)]
    if fam == "D":
        if char != 2:
            return [{"h0": 1, "h1": -1}] if n % 2 == 1 else []
        return None
    if name == "E7" and char == 2:
        return ([{"gamma4": 1}, {"gamma8": 1}, {"gamma16": 1}]
                + [{f"h{i}": 1} for i in (1, 2, 3, 5)]
                + [{"h0": 1, "h4": 1}, {"h0": 1, "h6": 1}])
    return None


def expected_hh_2_defect(name: str, char: int) -> Optional[int]:
    """dim HK_2 - dim HH_2, when the comparison is tabulated."""
    fam, n = type_params(name)
    if fam == "A":
        m = (n - 1) // 2
        if n % 2 == 0 or (char != 0 and (m + 1) % char == 0):
            return 0
        return 1
    if name in ("E6", "E8"):
        return 0
    if name == "E7":
        return 0 if char == 3 else 1
    if fam == "D":
        if n % 2 == 1 and char == 2:
            return 0
        return None
    return None


def hh_2_killed_generators(name: str, char: int) -> Optional[List[ExpectedCombo]]:
    fam, n = type_params(name)
    if fam == "A" and expected_hh_2_defect(name, char) == 1:
        m = (n - 1) // 2
        return [{f"z{m}": 1}]
    if name == "E7" and char != 3:
        return [{"pi0": 1, "pi4": 1, "pi6": 1}]
    return None


def tabulated(name: str) -> bool:
    """Whether the tables cover the canonical preset name: A_n from n = 3,
    D_n from n = 4, E6, E7 and E8."""
    fam, num = name[:1], name[1:]
    if not num.isdigit():
        return False
    n = int(num)
    return (fam == "A" and n >= 3) or (fam == "D" and n >= 4) or (fam == "E" and 6 <= n <= 8)


def listed_types() -> List[str]:
    return [f"A{n}" for n in range(3, 10)] + [f"D{n}" for n in range(4, 9)] + \
        ["E6", "E7", "E8"]


def documented_triple_collisions(char: int) -> List[Tuple[str, str]]:
    if char == 2:
        return [("A9", "E6")]
    return [("A3", "A5")]
