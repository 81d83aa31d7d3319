"""Hand-written Coxeter numbers and Nakayama permutations of the Dynkin
presets, kept as the reference for the constants that
``quiver.dynkin_constants`` derives from the adjacency matrix.

The vertex numbering is that of ``presets.preset_graph``: A_n is the chain
0-1-...-(n-1), D_n has the fork 0, 1 on vertex 2 of the chain 2-...-(n-1),
and E_n has vertex 0 on vertex 3 of the chain 1-2-...-(n-1).
"""

COXETER = {"A": lambda n: n + 1, "D": lambda n: 2 * n - 2,
           "E": {6: 12, 7: 18, 8: 30}.__getitem__}


def hand_coxeter(name):
    return COXETER[name[0]](int(name[1:]))


def hand_nakayama(name):
    fam, n = name[0], int(name[1:])
    perm = {i: i for i in range(n)}
    if fam == "A":
        perm = {i: n - 1 - i for i in range(n)}
    elif fam == "D" and n % 2 == 1:
        perm[0], perm[1] = 1, 0
    elif name == "E6":
        perm.update({1: 5, 5: 1, 2: 4, 4: 2})
    return perm


#: the types on which the derivation is compared with the hand tables
HAND_TYPES = ([f"A{n}" for n in range(1, 41)] + [f"D{n}" for n in range(4, 31)]
              + ["E6", "E7", "E8"])
